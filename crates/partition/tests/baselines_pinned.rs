//! Golden fingerprints of the algorithmic partitioners and embeddings.
//!
//! The paper's §4.3 baselines (PAR-A/C/D/G) and its §7.3 embeddings (PCA,
//! MDS) draw from seeded RNGs and sum floating-point distances in a fixed
//! order, so one build gives one partition and one embedding. The literals
//! below were recorded at commit dd7353e, where each partitioner had its
//! own sampled-distance loops and PCA and MDS each their own power
//! iteration. They pin every partition, embedding and objective bit for
//! bit: a cell that fails here means the output moved, not just its cost.
//!
//! A partition cell is an FNV-1a hash of the assignment, the f64 bits of
//! `gpo`, `gpo_sampled(.., 64, 7)`, `expected_pe` and `f_value`, and
//! `signature_cost`. An embedding cell hashes the bits of every entry.

use les3_core::sim::Jaccard;
use les3_core::Partitioning;
use les3_data::realistic::DatasetSpec;
use les3_data::zipfian::ZipfianGenerator;
use les3_data::{SetDatabase, SetId, TokenId};
use les3_partition::objective::{expected_pe, f_value, gpo, gpo_sampled, signature_cost};
use les3_partition::rep::{Mds, Pca, RepMatrix};
use les3_partition::{ParA, ParC, ParD, ParG};

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
}

fn zipf() -> SetDatabase {
    ZipfianGenerator::new(500, 300, 6.0, 1.1).generate(11)
}

fn kosarak() -> SetDatabase {
    DatasetSpec::kosarak().with_sets(500).generate(5)
}

/// `[assignment, gpo, gpo_sampled, signature_cost, expected_pe, f_value]`.
fn cell(db: &SetDatabase, part: &Partitioning) -> [u64; 6] {
    let mut assignment = Fnv::new();
    assignment.u64(part.n_groups() as u64);
    for &g in part.assignment() {
        assignment.u64(g as u64);
    }
    let queries: Vec<Vec<TokenId>> = (0..db.len() as SetId)
        .step_by(25)
        .map(|id| db.set(id).to_vec())
        .collect();
    [
        assignment.0,
        gpo(db, part, Jaccard).to_bits(),
        gpo_sampled(db, part, Jaccard, 64, 7).to_bits(),
        signature_cost(db, part) as u64,
        expected_pe(db, part, Jaccard, &queries).to_bits(),
        f_value(db, part, &queries).to_bits(),
    ]
}

/// `Pca::fit` took `(iterations, seed)` before they became constants at
/// the `paper` recorder's 25 and 3. This calls either signature with those
/// values, so one file pins the embedding on both sides of that change.
trait FitPca<Args> {
    fn fit_pca(self, db: &SetDatabase, d: usize) -> Pca;
}

impl<F: Fn(&SetDatabase, usize, usize, u64) -> Pca> FitPca<(usize, usize, u64)> for F {
    fn fit_pca(self, db: &SetDatabase, d: usize) -> Pca {
        self(db, d, 25, 3)
    }
}

impl<F: Fn(&SetDatabase, usize) -> Pca> FitPca<(usize,)> for F {
    fn fit_pca(self, db: &SetDatabase, d: usize) -> Pca {
        self(db, d)
    }
}

fn fit_pca<A>(fit: impl FitPca<A>, db: &SetDatabase, d: usize) -> Pca {
    fit.fit_pca(db, d)
}

fn matrix_hash(m: &RepMatrix) -> u64 {
    let mut h = Fnv::new();
    h.u64(m.len() as u64);
    h.u64(m.dim() as u64);
    for &v in m.as_slice() {
        h.u64(v.to_bits());
    }
    h.0
}

#[rustfmt::skip]
const PARTITIONS: [(&str, [u64; 6]); 16] = [
    ("zipf PAR-A 8", [0xa09058183378bdef, 0x40db618f1f0cb868, 0x40db544dd7fc0d6d, 0x3d5, 0x3fc4752f97c99042, 0x40c068de6ce6ce6c]),
    ("zipf PAR-C 8", [0x14bbbfdb0a4bb3ae, 0x40d976161f7fbd6d, 0x40d97c38682ba6d8, 0x3ad, 0x3fc80472c96d4e56, 0x40bfbba478478477]),
    ("zipf PAR-D 8", [0x76134c681798176d, 0x40dbcc91037d0ee7, 0x40dbb1add7ef4bc6, 0x42e, 0x3fc0fa0469cc8d39, 0x40c0f0d9b39b39b4]),
    ("zipf PAR-G 8", [0xc7faa1af19454fab, 0x40dd30d5268d9b30, 0x40dd9f0e97a9b911, 0x2ec, 0x3fd23c717c8bb36e, 0x40bbee9bbbbbbbbc]),
    ("zipf PAR-A 32", [0xaf7eb8d2105ff6db, 0x40b8eb4c0a5cee95, 0x40b909f10b400da3, 0x655, 0x3fd932572a5cf05b, 0x40b7af064c64c64b]),
    ("zipf PAR-C 32", [0x6f28fc4b722b101, 0x40b5198f8f9bb07d, 0x40b56bdce606a0be, 0x572, 0x3fe03fe573e55fec, 0x40b33a0068068067]),
    ("zipf PAR-D 32", [0x599b290e279d9c65, 0x40ba7c516b9d9160, 0x40ba702ca4d68be8, 0x732, 0x3fd4178428634ad1, 0x40bacca596596592]),
    ("zipf PAR-G 32", [0xddd842772686a954, 0x40b8425afad1ebb2, 0x40b8269d1b47eb8f, 0x491, 0x3fe19555ffc4bf45, 0x40b1993485485484]),
    ("kosarak PAR-A 8", [0xb6c4602d667611ae, 0x40dbcf5d74543634, 0x40dbaf02fad73d24, 0x69f, 0x3fd0c7ed5654d45b, 0x40bcd1f9640eb963]),
    ("kosarak PAR-C 8", [0x1db90d8220aa1b6b, 0x40da68d093bff484, 0x40da5859847a7c56, 0x640, 0x3fd30661b172b888, 0x40bb735adf71badf]),
    ("kosarak PAR-D 8", [0xd52777d534a288d, 0x40dc16fecc7fd14f, 0x40dc0117fbfd3028, 0x6c7, 0x3fd0115ddfc69d5d, 0x40bd4166742b0673]),
    ("kosarak PAR-G 8", [0xf65088baa218448a, 0x40decf276e26eba7, 0x40de71d4538c6278, 0x5a3, 0x3fd32481cedf1472, 0x40bb60f7c57c57c6]),
    ("kosarak PAR-A 32", [0xe6f827ce1cb8c74, 0x40b9a03832781e7c, 0x40b990e0f2537155, 0x8a0, 0x3fddd21d94580e03, 0x40b4dc8172354171]),
    ("kosarak PAR-C 32", [0x5ab8bd1ebdbd477f, 0x40b7197081d054df, 0x40b73543e6b59aee, 0x7d5, 0x3fe151547ae28881, 0x40b1ec385ffe785f]),
    ("kosarak PAR-D 32", [0xa087711f11e9eba5, 0x40baba57048445cb, 0x40bad5b39bbad871, 0x9a9, 0x3fda14f08b326e4a, 0x40b724b82f0a7830]),
    ("kosarak PAR-G 32", [0x81632e459a3cb5be, 0x40b8f35cc246fcf3, 0x40b90d0caacb06b1, 0x716, 0x3fe1bca2074713e6, 0x40b1693c361dbc35]),
];

/// `[PCA, MDS]` embedding hashes.
const EMBEDDINGS: [u64; 2] = [0x16f0ceb89c4a562b, 0x4b30640dd9250133];

#[test]
fn baseline_partitions_and_objectives_are_pinned() {
    let mut got = Vec::new();
    for (shape, db) in [("zipf", zipf()), ("kosarak", kosarak())] {
        for groups in [8, 32] {
            let parts = [
                ("PAR-A", ParA::new(groups).partition(&db, Jaccard)),
                ("PAR-C", ParC::new(groups).partition(&db, Jaccard)),
                ("PAR-D", ParD::new(groups).partition(&db, Jaccard)),
                ("PAR-G", ParG::new(groups).partition(&db, Jaccard)),
            ];
            for (name, part) in parts {
                got.push((format!("{shape} {name} {groups}"), cell(&db, &part)));
            }
        }
    }
    let table: String = got
        .iter()
        .map(|(name, c)| {
            let c: Vec<String> = c.iter().map(|v| format!("{v:#x}")).collect();
            format!("    (\"{name}\", [{}]),\n", c.join(", "))
        })
        .collect();
    for ((name, c), (want_name, want)) in got.iter().zip(PARTITIONS) {
        assert_eq!(
            (name.as_str(), c),
            (want_name, &want),
            "moved; the table now reads:\n{table}"
        );
    }
}

#[test]
fn pca_and_mds_embeddings_are_pinned() {
    let db = zipf();
    let pca = fit_pca(Pca::fit, &db, 6);
    let pca = RepMatrix::from_representation(&db, &pca);
    let sample = SetDatabase::from_sets((0..300).map(|id| db.set(id).to_vec()));
    let mds = Mds::new(4).fit(&sample);
    assert_eq!(pca.dim(), 6);
    assert_eq!(mds.len(), 300);
    let got = [matrix_hash(&pca), matrix_hash(&mds)];
    assert_eq!(got, EMBEDDINGS, "moved: {got:#x?}");
}
