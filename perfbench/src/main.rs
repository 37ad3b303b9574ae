//! One refresh benchmark for openivm-rs's four deployments.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--parallelism <n>]
//! ```
//!
//! Prints readable report lines, then as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Exits non-zero when a check of the program's output fails. See
//! README.md for the workloads and the protocol.

mod model;
mod report;
mod rng;
mod stats;
mod trace;
mod workloads;

use std::io::Write;
use std::path::PathBuf;

use workloads::{Ctx, NAMES};

/// Settings that change what the engine runs. The benchmark refuses to
/// start under any of them, so both sides of a comparison run the same
/// configuration.
const REFUSED_ENV: [&str; 5] = [
    "OPENIVM_PARALLELISM",
    "OPENIVM_MEMORY_BUDGET",
    "OPENIVM_DATA_DIR",
    "OPENIVM_FAULT_PLAN",
    "OPENIVM_NO_SIMD",
];

struct Args {
    workload: String,
    ctx: Ctx,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut parallelism) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--parallelism" => {
                let p: usize = value()?
                    .parse()
                    .map_err(|e| format!("--parallelism: {e}"))?;
                if !(1..=64).contains(&p) {
                    return Err("--parallelism must be in 1..=64".into());
                }
                parallelism = Some(p);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {NAMES:?}"));
    }
    let dir = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(".perfbench-run")
        .join(format!("{workload}-{}", std::process::id()));
    Ok(Args {
        workload,
        ctx: Ctx {
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
            parallelism,
            dir,
        },
    })
}

/// Removes the run's scratch directory however the run ends.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Pin glibc malloc's thresholds at the values its dynamic adjustment
/// works toward in a long-running process: blocks up to 32 MiB come from
/// the heap and freed memory stays mapped. Left dynamic, the mmap
/// threshold moves with the order in which the engine's worker threads
/// free their blocks, so one process re-faults ~67k pages per `htap-join`
/// set-up and the next ~13k, and `setup_s` reads 0.55 or 0.40 s by chance.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_malloc_thresholds() -> Result<(), String> {
    use std::os::raw::c_int;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    // From glibc's <malloc.h>.
    const M_TRIM_THRESHOLD: c_int = -1;
    const M_MMAP_THRESHOLD: c_int = -3;
    // SAFETY: mallopt only sets allocator parameters; it runs before the
    // program's first call and while the process has one thread.
    let set = unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 && mallopt(M_TRIM_THRESHOLD, 1 << 30) == 1
    };
    if set {
        Ok(())
    } else {
        Err("mallopt refused the malloc thresholds".into())
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_malloc_thresholds() -> Result<(), String> {
    Ok(())
}

fn run() -> Result<(), String> {
    pin_malloc_thresholds()?;
    if let Some(var) = REFUSED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        return Err(format!(
            "{var} is set; unset it so runs compare like with like"
        ));
    }
    let Args { workload, ctx } = parse_args()?;
    std::fs::create_dir_all(&ctx.dir).map_err(|e| format!("{}: {e}", ctx.dir.display()))?;
    let _scratch = ScratchDir(ctx.dir.clone());
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench {workload} seed={} seconds={} trace={} nproc={workers} parallelism={}",
        ctx.seed,
        ctx.seconds,
        ctx.trace as u8,
        ctx.parallelism.map_or_else(
            || format!("default({})", ivm_engine::Database::new().parallelism()),
            |p| p.to_string()
        ),
    );
    let outcome = match workload.as_str() {
        "extension-lazy" => workloads::extension_lazy::run(&ctx),
        "htap-join" => workloads::htap_join::run(&ctx),
        "served-eager" => workloads::served_eager::run(&ctx),
        "catchup-spill" => workloads::catchup_spill::run(&ctx),
        _ => unreachable!("checked in parse_args"),
    };
    // A failed oracle check ends the run non-zero, with no result line.
    let outcome = outcome.map_err(|e| format!("check failed: {e}"))?;
    let (metrics, units): (_, &[(&str, &str)]) = if ctx.trace {
        let spans = ctx
            .dir
            .parent()
            .expect("run dir has a parent")
            .join(format!("spans-{workload}-seed{}.tsv", ctx.seed));
        let mut file = std::io::BufWriter::new(
            std::fs::File::create(&spans).map_err(|e| format!("{}: {e}", spans.display()))?,
        );
        outcome
            .meter
            .write_spans(&mut file)
            .map_err(|e| e.to_string())?;
        file.flush().map_err(|e| e.to_string())?;
        println!("spans written to {}", spans.display());
        (report::per_layer(&outcome), &report::PER_LAYER)
    } else {
        (
            report::end_to_end(&outcome, report::peak_rss_mb()?),
            &report::END_TO_END,
        )
    };
    for line in report::lines(&outcome, &metrics, units) {
        println!("{line}");
    }
    println!("{}", report::json(&outcome, &metrics, units)?);
    Ok(())
}

fn main() {
    let code = match run() {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}
