//! The repository benchmark. Run one workload for a fixed time and
//! print every end-to-end metric (or, with `--trace 1`, every per-layer
//! metric) followed by one JSON result line:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_campaign --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The process exits 1 when any output differs from its reference and
//! 2 on bad arguments. See `perfbench/README.md`.

mod alloc;
mod harness;
mod host;
mod layers;
mod spec;
mod stats;
mod trace;
mod workloads;

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

fn main() {
    // Re-exec'd socket workers of the `campaignd_submit` probe enter
    // worker mode here and never return.
    campaignd::socket_worker_main_if_requested(&workloads::campaignd::registry());

    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--benchmark-json") {
        print!("{}", spec::benchmark_json());
        return;
    }
    let setup_probe = argv.first().map(String::as_str) == Some(workloads::SETUP_PROBE);
    if setup_probe {
        argv.remove(0);
    }
    let args = match harness::Args::parse(argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let paper = args.workload.name == spec::PAPER;
    if setup_probe {
        let digest = if paper {
            workloads::paper::first_batch(args.seed)
        } else {
            workloads::intersection::first_batch(args.seed)
        };
        println!("{digest}");
        return;
    }
    let report = if paper {
        workloads::paper::run(&args)
    } else {
        workloads::intersection::run(&args)
    };
    report.emit(&args);
    std::process::exit(if report.failed == 0 { 0 } else { 1 });
}
