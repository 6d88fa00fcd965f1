//! `les3-serve`: build a LES3 index and serve it over HTTP.
//!
//! ```text
//! cargo run --release -p les3-net --bin les3-serve -- --port 7878
//! curl -s localhost:7878/healthz
//! curl -s localhost:7878/knn -d '{"query":[1,2,3],"k":5}'
//! ```
//!
//! The dataset is either synthetic (`--sets/--universe/--avg-size/
//! --alpha/--seed`, a Zipfian token distribution) or loaded from a text
//! file (`--load FILE`, one set per line, whitespace-separated integer
//! token ids). The index is a `Les3Index<Jaccard>` over a round-robin
//! partitioning of `--groups` groups.
//!
//! Persistence (`docs/PERSISTENCE.md`): `--save-index DIR` writes a
//! durable checkpoint at startup and enables `POST /snapshot` to rewrite
//! it on demand without pausing queries; `--load-index DIR` skips the
//! build entirely and serves the checkpointed index.
//!
//! With `--port 0` the OS picks an ephemeral port; the chosen address is
//! printed as `listening on http://…` (CI's smoke test parses that
//! line). See `docs/PROTOCOL.md` for the wire protocol.

use std::path::Path;
use std::process::exit;
use std::sync::Arc;

use les3_core::persist::read_meta;
use les3_core::sim::Jaccard;
use les3_core::{DurableIndex, Les3Index, NamespaceSpec, Partitioning, ServeConfig, ServeFront};
use les3_data::zipfian::ZipfianGenerator;
use les3_data::SetDatabase;
use les3_net::{HttpServer, NetConfig, SnapshotError, SnapshotFn};

const USAGE: &str = "\
les3-serve — serve a LES3 index over HTTP

USAGE:
    les3-serve [OPTIONS]

Network:
    --host HOST            bind address        [default: 127.0.0.1]
    --port PORT            bind port; 0 = ephemeral (printed) [default: 7878]
    --conn-workers N       connection handler threads [default: 4]

Serving front (admission control):
    --workers N            query worker threads; 0 = one per core [default: 0]
    --queue-capacity N     accepted-but-unfinished cap; 0 = unbounded [default: 1024]

Index:
    --groups N             partitioning groups [default: max(16, sets/80)]

Dataset (synthetic unless --load):
    --sets N               number of sets      [default: 10000]
    --universe N           token universe size [default: 2000]
    --avg-size F           mean set size       [default: 12]
    --alpha F              Zipf skew           [default: 1.1]
    --seed N               generator seed      [default: 42]
    --load FILE            read sets from FILE (one per line, integer token ids
                           below 4294967295)

Namespaces (docs/PROTOCOL.md, the /ns routes):
    --ns NAME=FILE         also serve FILE (same text format) as namespace
                           NAME; repeatable. Namespaces created over HTTP
                           (PUT /ns/{name}) work without this flag.

Persistence (docs/PERSISTENCE.md):
    --save-index DIR       checkpoint the index to DIR at startup and let
                           POST /snapshot rewrite it while serving
    --load-index DIR       serve the index checkpointed in DIR instead of
                           building one (replaces --load/--sets/--groups)

    -h, --help             print this help
";

struct Args {
    host: String,
    port: u16,
    conn_workers: usize,
    workers: usize,
    queue_capacity: usize,
    groups: Option<usize>,
    sets: usize,
    universe: u32,
    avg_size: f64,
    alpha: f64,
    seed: u64,
    load: Option<String>,
    namespaces: Vec<(String, String)>,
    save_index: Option<String>,
    load_index: Option<String>,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            host: "127.0.0.1".to_string(),
            port: 7878,
            conn_workers: 4,
            workers: 0,
            queue_capacity: 1024,
            groups: None,
            sets: 10_000,
            universe: 2_000,
            avg_size: 12.0,
            alpha: 1.1,
            seed: 42,
            load: None,
            namespaces: Vec::new(),
            save_index: None,
            load_index: None,
        }
    }
}

fn die(message: &str) -> ! {
    eprintln!("les3-serve: {message}");
    eprintln!("try --help");
    exit(2)
}

fn parse_args() -> Args {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    fn value(it: &mut impl Iterator<Item = String>, flag: &str) -> String {
        it.next()
            .unwrap_or_else(|| die(&format!("{flag} needs a value")))
    }
    fn parse<T: std::str::FromStr>(raw: String, flag: &str) -> T {
        raw.parse()
            .unwrap_or_else(|_| die(&format!("bad value for {flag}: {raw:?}")))
    }
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--host" => args.host = value(&mut it, "--host"),
            "--port" => args.port = parse(value(&mut it, "--port"), "--port"),
            "--conn-workers" => {
                args.conn_workers = parse(value(&mut it, "--conn-workers"), "--conn-workers")
            }
            "--workers" => args.workers = parse(value(&mut it, "--workers"), "--workers"),
            "--queue-capacity" => {
                args.queue_capacity = parse(value(&mut it, "--queue-capacity"), "--queue-capacity")
            }
            "--groups" => args.groups = Some(parse(value(&mut it, "--groups"), "--groups")),
            "--sets" => args.sets = parse(value(&mut it, "--sets"), "--sets"),
            "--universe" => args.universe = parse(value(&mut it, "--universe"), "--universe"),
            "--avg-size" => args.avg_size = parse(value(&mut it, "--avg-size"), "--avg-size"),
            "--alpha" => args.alpha = parse(value(&mut it, "--alpha"), "--alpha"),
            "--seed" => args.seed = parse(value(&mut it, "--seed"), "--seed"),
            "--load" => args.load = Some(value(&mut it, "--load")),
            "--ns" => {
                let raw = value(&mut it, "--ns");
                let Some((name, file)) = raw.split_once('=') else {
                    die(&format!("--ns wants NAME=FILE, got {raw:?}"));
                };
                args.namespaces.push((name.to_string(), file.to_string()));
            }
            "--save-index" => args.save_index = Some(value(&mut it, "--save-index")),
            "--load-index" => args.load_index = Some(value(&mut it, "--load-index")),
            "-h" | "--help" => {
                print!("{USAGE}");
                exit(0)
            }
            other => die(&format!("unknown flag {other:?}")),
        }
    }
    args
}

/// Longest accepted dataset line: a 1 MiB line is ~130 k tokens, far
/// past any plausible set, and almost certainly a binary or wrongly
/// concatenated file — reject it with the line number instead of
/// grinding through it.
const MAX_LINE_BYTES: usize = 1 << 20;

/// Parses the `--load` text format (one set per line, whitespace-
/// separated integer token ids; blank lines and `#` comments skipped)
/// into a database, or a one-line description of exactly what is wrong
/// and where.
///
/// Token ids stop below `u32::MAX`: the universe is the largest id + 1,
/// which must itself be a `u32`.
fn parse_database(text: &str) -> Result<SetDatabase, String> {
    let mut sets: Vec<Vec<u32>> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line.len() > MAX_LINE_BYTES {
            return Err(format!(
                "line {}: {} bytes on one line (limit {MAX_LINE_BYTES}); is this really \
                 a one-set-per-line text file?",
                idx + 1,
                line.len()
            ));
        }
        let mut set = Vec::new();
        for tok in line.split_whitespace() {
            let id: u32 = tok
                .parse()
                .map_err(|_| format!("line {}: bad token id {tok:?}", idx + 1))?;
            if id == u32::MAX {
                return Err(format!(
                    "line {}: token id {id} is out of range (the largest is {})",
                    idx + 1,
                    u32::MAX - 1
                ));
            }
            set.push(id);
        }
        sets.push(set);
    }
    if sets.is_empty() {
        return Err("no sets (every line is blank or a comment)".to_string());
    }
    Ok(SetDatabase::from_sets(sets))
}

fn load_database(path: &str) -> SetDatabase {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| die(&format!("cannot read {path:?}: {e}")));
    parse_database(&text).unwrap_or_else(|e| die(&format!("{path:?}: {e}")))
}

/// Creates the `--ns NAME=FILE` namespaces on `front` (Jaccard, default
/// grouping — finer control is a `PUT /ns/{name}` away).
fn preload_namespaces(front: &ServeFront<Les3Index<Jaccard>>, args: &Args) {
    for (name, file) in &args.namespaces {
        let db = load_database(file);
        let sets = (0..db.len()).map(|i| db.set(i as u32).to_vec()).collect();
        let spec = NamespaceSpec {
            sets,
            ..NamespaceSpec::default()
        };
        let ns = front
            .namespaces()
            .create(name, spec)
            .unwrap_or_else(|e| die(&format!("--ns {name}={file}: {e}")));
        println!(
            "namespace {name:?}: {} sets from {file:?}",
            ns.info().n_sets
        );
    }
}

/// Serves `front` over HTTP forever. Before the first query is
/// accepted, the namespaces of a `--load-index` directory and the
/// `--ns` files join it and `--save-index`'s directory receives a
/// checkpoint of everything the front serves (the default route with
/// its tombstones, every namespace under `DIR/ns/{name}`); `POST
/// /snapshot` rewrites that checkpoint on demand.
fn serve(front: ServeFront<Les3Index<Jaccard>>, args: &Args) -> ! {
    let front = Arc::new(front);
    if let Some(dir) = &args.load_index {
        let ns_root = Path::new(dir).join("ns");
        let n = front
            .namespaces()
            .load_all(&ns_root)
            .unwrap_or_else(|e| die(&format!("cannot load namespaces from {ns_root:?}: {e}")));
        if n > 0 {
            println!("loaded {n} namespace(s) from {ns_root:?}");
        }
    }
    preload_namespaces(&front, args);
    if let Some(dir) = &args.save_index {
        front
            .save(Path::new(dir))
            .unwrap_or_else(|e| die(&format!("cannot save index to {dir:?}: {e}")));
        println!("saved index to {dir:?}");
    }
    let snapshot: Option<SnapshotFn> = args.save_index.clone().map(|dir| {
        let front = Arc::clone(&front);
        Box::new(move || match front.save(Path::new(&dir)) {
            Ok(()) => Ok(dir.clone()),
            Err(e) => Err(SnapshotError::Failed(e.to_string())),
        }) as SnapshotFn
    });
    let net = NetConfig {
        conn_workers: args.conn_workers.max(1),
        ..NetConfig::default()
    };
    let snap = if snapshot.is_some() {
        ", POST /snapshot"
    } else {
        ""
    };
    let server =
        HttpServer::bind_with_snapshot(front, (args.host.as_str(), args.port), net, snapshot)
            .unwrap_or_else(|e| die(&format!("cannot bind {}:{}: {e}", args.host, args.port)));
    println!("listening on http://{}", server.local_addr());
    println!(
        "endpoints: POST /knn, POST /range{snap}, GET /stats, GET /healthz, /ns/... \
         (docs/PROTOCOL.md)"
    );
    loop {
        std::thread::park();
    }
}

/// Serves the index checkpointed in `dir`, tombstones and all.
fn serve_loaded(dir: &str, config: ServeConfig, args: &Args) -> ! {
    let live = DurableIndex::<Les3Index<Jaccard>>::open(dir, Jaccard)
        .unwrap_or_else(|e| die(&format!("cannot load index from {dir:?}: {e}")))
        .into_live();
    serve(ServeFront::from_live(live, config), args)
}

/// Serves a freshly built index.
fn serve_built(index: Les3Index<Jaccard>, config: ServeConfig, args: &Args) -> ! {
    serve(ServeFront::new(index, config), args)
}

fn main() {
    let args = parse_args();
    let config = ServeConfig {
        workers: args.workers,
        queue_capacity: if args.queue_capacity == 0 {
            usize::MAX
        } else {
            args.queue_capacity
        },
    };

    if let Some(dir) = &args.load_index {
        // Serve a checkpointed index; the tombstones come with it.
        if args.load.is_some() {
            die("--load-index and --load are mutually exclusive");
        }
        let meta = read_meta(Path::new(dir))
            .unwrap_or_else(|e| die(&format!("cannot load index from {dir:?}: {e}")));
        println!(
            "loading {dir:?}: epoch {}, {} sets, {} groups, sim {:?}",
            meta.epoch, meta.n_sets, meta.n_groups, meta.sim_name,
        );
        serve_loaded(dir, config, &args)
    }

    let db = match &args.load {
        Some(path) => {
            let db = load_database(path);
            println!("loaded {path:?}: {}", db.stats());
            db
        }
        None => {
            let db = ZipfianGenerator::new(args.sets, args.universe, args.avg_size, args.alpha)
                .generate(args.seed);
            println!("generated Zipfian dataset: {}", db.stats());
            db
        }
    };
    let n_sets = db.len();
    let n_groups = args
        .groups
        .unwrap_or_else(|| (n_sets / 80).max(16))
        .clamp(1, n_sets.max(1));
    let partitioning = Partitioning::round_robin(n_sets, n_groups);
    println!(
        "index: {} groups; front: workers={} queue_capacity={}",
        n_groups, config.workers, args.queue_capacity,
    );
    serve_built(Les3Index::build(db, partitioning, Jaccard), config, &args)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_database_accepts_comments_and_blank_lines() {
        let db = parse_database("# header\n\n0 1 2\n  3 4  \n# trailer\n").unwrap();
        assert_eq!(db.len(), 2);
        assert_eq!(db.set(0), &[0, 1, 2]);
        assert_eq!(db.set(1), &[3, 4]);
    }

    #[test]
    fn parse_database_reports_the_offending_line() {
        let err = parse_database("0 1\n2 x 3\n4\n").unwrap_err();
        assert!(err.contains("line 2"), "error must locate the line: {err}");
        assert!(err.contains("\"x\""), "error must quote the token: {err}");
        // A negative id is not a u32 either.
        let err = parse_database("0\n\n\n7 -3\n").unwrap_err();
        assert!(
            err.contains("line 4"),
            "line numbers count raw lines: {err}"
        );
    }

    #[test]
    fn parse_database_rejects_empty_input() {
        for text in ["", "\n\n", "# only comments\n#\n"] {
            let err = parse_database(text).unwrap_err();
            assert!(err.contains("no sets"), "got: {err}");
        }
    }

    #[test]
    fn parse_database_rejects_absurd_lines() {
        let huge = "7 ".repeat(MAX_LINE_BYTES / 2 + 1);
        let err = parse_database(&huge).unwrap_err();
        assert!(err.contains("line 1"), "got: {err}");
        assert!(err.contains("limit"), "got: {err}");
    }

    // The `--load` battery: every input ends in a database or a
    // line-numbered error, never a panic, in debug and release alike.

    /// A small valid file: a comment, a blank line, a multiset, padding,
    /// and the largest token id the format accepts.
    const SAMPLE: &str = "# sets\n0 1 2\n\n3 3 4\n  5 6  \n4294967294 7\n";

    /// The outcome contract. A database keeps every token below its
    /// universe (what `Tgm::build` indexes by); an error names its line,
    /// or says there are no sets.
    fn check(text: &str) {
        match parse_database(text) {
            Ok(db) => {
                for (_, set) in db.iter() {
                    assert!(set.iter().all(|&t| t < db.universe_size()), "{text:?}");
                }
            }
            Err(e) => assert!(e.starts_with("line ") || e.contains("no sets"), "{e}"),
        }
    }

    #[test]
    fn every_byte_flip_of_a_load_file_parses_or_errs() {
        let bytes = SAMPLE.as_bytes();
        for i in 0..bytes.len() {
            for flip in [0x01u8, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0xFF] {
                let mut mutated = bytes.to_vec();
                mutated[i] ^= flip;
                // A file that is not UTF-8 fails in `read_to_string`, before
                // the parser.
                if let Ok(text) = std::str::from_utf8(&mutated) {
                    check(text);
                }
            }
        }
        // The last digit of 4294967294 flipped to 5: the one id past the
        // range.
        let at = SAMPLE.find("94 7").unwrap() + 1;
        let mut mutated = SAMPLE.as_bytes().to_vec();
        mutated[at] ^= 0x01;
        let err = parse_database(std::str::from_utf8(&mutated).unwrap()).unwrap_err();
        assert!(err.starts_with("line 6:"), "{err}");
    }

    #[test]
    fn every_truncation_of_a_load_file_parses_or_errs() {
        for len in 0..=SAMPLE.len() {
            check(&SAMPLE[..len]);
        }
    }

    #[test]
    fn the_line_guard_is_exact() {
        let at_limit = format!("0 1\n{}77\n", "7 ".repeat(MAX_LINE_BYTES / 2 - 1));
        let past = format!("0 1\n{}777\n", "7 ".repeat(MAX_LINE_BYTES / 2 - 1));
        assert_eq!(at_limit.lines().nth(1).unwrap().len(), MAX_LINE_BYTES);
        assert_eq!(parse_database(&at_limit).unwrap().len(), 2);
        let err = parse_database(&past).unwrap_err();
        assert!(err.starts_with("line 2:") && err.contains("limit"), "{err}");
    }

    #[test]
    fn token_ids_stop_below_u32_max() {
        let db = parse_database("1\n4294967294 3\n").unwrap();
        assert_eq!(db.universe_size(), u32::MAX);
        assert_eq!(db.set(1), &[3, 4294967294]);
        let err = parse_database("1\n\n2 4294967295 3\n").unwrap_err();
        assert!(
            err.starts_with("line 3:") && err.contains("4294967295"),
            "{err}"
        );
        // Past the type: a bad token, not a wrapped one.
        let err = parse_database("4294967296\n").unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
    }

    proptest::proptest! {
        /// Arbitrary short texts over the format's own alphabet.
        #[test]
        fn load_garbage_parses_or_errs(picks in proptest::collection::vec(0usize..15, 0..80)) {
            const ALPHABET: &[u8; 15] = b"0123456789 \n#-\t";
            let text: String = picks.iter().map(|&i| ALPHABET[i] as char).collect();
            check(&text);
        }
    }
}
