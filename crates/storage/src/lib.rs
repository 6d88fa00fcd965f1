//! Disk cost simulation for the disk-based experiments (paper §7.6).
//!
//! The paper's disk-based evaluation runs on a 5400 RPM HDD with ≈ 80 MB/s
//! sequential read rate, and its conclusions hinge on the access-pattern
//! asymmetry of spinning disks:
//!
//! > "Since sets in the same group are checked jointly during the searching
//! > process, materializing a group of sets continuously on disk minimizes
//! > the data transfer delay. DualTrans and InvIdx, on the contrary, incur
//! > repetitive retrieval of data with random disk access."
//!
//! We replace the physical disk with an accounting model:
//!
//! * [`DiskModel`] — cost parameters (average seek, rotational latency,
//!   transfer rate, page size) with presets for the paper's HDD and a
//!   modern SSD;
//! * [`SimDisk`] — charges each page read as sequential (transfer only)
//!   or random (seek + rotational latency + transfer), and accumulates the
//!   simulated elapsed time;
//! * [`layout`] — maps a `SetDatabase` onto pages either in insertion
//!   order (baselines) or grouped (LES3 stores each group contiguously).

pub mod disk;
pub mod layout;

pub use disk::{DiskModel, IoStats, SimDisk};
pub use layout::{GroupedLayout, PageRun, SequentialLayout};
