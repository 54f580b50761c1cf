//! `campaignbench`: runs one workload of the campaign benchmark and
//! prints its metrics.
//!
//! ```text
//! campaignbench --workload NAME --seed N --seconds S --trace 0|1
//!               [--workers W] [--threads T] [--out DIR]
//! campaignbench record-digests --seeds A-B [--workers W] [--out DIR]
//! ```
//!
//! With `--trace 0` the workload's campaigns run untraced, each
//! repetition in a fresh child process, until `--seconds` have passed;
//! the end-to-end metrics are medians over the repetitions. With
//! `--trace 1` the campaigns run once untraced at `--workers`, once
//! untraced at one worker, and once as a traced single-thread replay;
//! the per-layer metrics come from the replay's spans. Both modes check
//! the outputs, print the host and a readable report, and end with one
//! JSON line: `{"correct", "attempted", "failed", "metrics"}`.

use campaignbench::digest::{self, fnv1a64};
use campaignbench::host::Host;
use campaignbench::metrics::{self, breakdown, failure_counts};
use campaignbench::replay::{replay, simulated_steps};
use campaignbench::stats::{median, quartiles, relative_spread};
use campaignbench::trace::Tracer;
use campaignbench::workloads::Workload;
use popele_lab::sweep::json::Json;
use popele_lab::sweep::{
    checkpoint_path, run_campaign, summary_path, CampaignOptions, Checkpoint, SweepSpec,
};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Prefix of the line a campaign child prints to stderr just before its
/// first `run_campaign` call, followed by the wall-clock time in
/// nanoseconds since the Unix epoch. Set-up time runs from that time to
/// the moment the first progress line (which the runner prints as a
/// shard's trials start) appears in the child's stderr.
const START_MARKER: &str = "campaignbench: campaign start at ";

fn unix_ns() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos())
}

#[derive(Debug, Clone)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    workers: usize,
    threads: usize,
    out: PathBuf,
    seeds: Option<(u64, u64)>,
}

fn usage(message: &str) -> ! {
    eprintln!("campaignbench: {message}");
    eprintln!(
        "usage: campaignbench --workload NAME --seed N --seconds S --trace 0|1 \
         [--workers W] [--threads T] [--out DIR]\n       \
         campaignbench record-digests --seeds A-B [--workers W] [--out DIR]\n\
         workloads: sweep-setup sweep-lazy count-elect"
    );
    std::process::exit(2);
}

fn parse_args(args: impl Iterator<Item = String>) -> Args {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let mut parsed = Args {
        workload: None,
        seed: 0,
        seconds: 10,
        trace: false,
        workers: nproc.min(2),
        threads: 1,
        out: PathBuf::from(".bench_out"),
        seeds: None,
    };
    let mut args = args;
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let number = || -> u64 {
            value
                .parse()
                .unwrap_or_else(|_| usage(&format!("{flag}: not a number: {value}")))
        };
        match flag.as_str() {
            "--workload" => {
                parsed.workload = Some(
                    Workload::parse(&value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value}"))),
                );
            }
            "--seed" => parsed.seed = number(),
            "--seconds" => parsed.seconds = number().max(1),
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--workers" => parsed.workers = usize::try_from(number()).unwrap_or(usize::MAX),
            "--threads" => parsed.threads = usize::try_from(number()).unwrap_or(usize::MAX),
            "--out" => parsed.out = PathBuf::from(value),
            "--seeds" => {
                let range = value
                    .split_once('-')
                    .and_then(|(a, b)| Some((a.parse().ok()?, b.parse().ok()?)))
                    .filter(|(a, b)| a <= b)
                    .unwrap_or_else(|| usage("--seeds takes A-B"));
                parsed.seeds = Some(range);
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    if parsed.workers == 0 || parsed.threads == 0 {
        usage("--workers and --threads must be at least 1");
    }
    if parsed.workers.saturating_mul(parsed.threads) > nproc {
        usage(&format!(
            "--workers {} × --threads {} exceeds the {nproc} available cores",
            parsed.workers, parsed.threads
        ));
    }
    parsed
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    let mode = args.peek().cloned();
    let result = match mode.as_deref() {
        Some("campaign") => {
            args.next();
            campaign_child(&parse_args(args))
        }
        Some("record-digests") => {
            args.next();
            record_digests(&parse_args(args))
        }
        _ => bench(&parse_args(args)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("campaignbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn campaigns(args: &Args, workload: Workload) -> Vec<SweepSpec> {
    workload
        .campaigns(args.seed)
        .into_iter()
        .map(|spec| SweepSpec {
            threads: args.threads,
            ..spec
        })
        .collect()
}

fn require_workload(args: &Args) -> io::Result<Workload> {
    args.workload
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "--workload is required"))
}

fn fresh_dir(dir: &Path) -> io::Result<()> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
        _ => {}
    }
    std::fs::create_dir_all(dir)
}

/// Peak resident set of this process, in kB (`VmHWM`).
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Child mode: runs the workload's campaigns once, untraced, into a
/// fresh `--out`, and prints wall time and peak memory as JSON.
fn campaign_child(args: &Args) -> io::Result<()> {
    let workload = require_workload(args)?;
    let specs = campaigns(args, workload);
    fresh_dir(&args.out)?;
    let options = CampaignOptions {
        out_dir: args.out.clone(),
        progress: true,
        workers: args.workers,
        ..CampaignOptions::default()
    };
    eprintln!("{START_MARKER}{}", unix_ns());
    let start = Instant::now();
    for spec in &specs {
        let outcome = run_campaign(spec, &options)?;
        if !outcome.completed {
            return Err(io::Error::other(format!("{} did not complete", spec.name)));
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let report = Json::Obj(vec![
        ("wall_s".into(), Json::Num(wall_s)),
        ("peak_rss_kb".into(), Json::from_u64(peak_rss_kb())),
    ]);
    println!("{}", report.render_compact());
    Ok(())
}

/// One untraced repetition, as the parent saw it.
#[derive(Debug, Clone)]
struct Rep {
    wall_s: f64,
    peak_rss_mb: f64,
    outputs: Outputs,
}

/// The command line of a campaign child at `workers` workers.
fn campaign_command(
    args: &Args,
    workload: Workload,
    workers: usize,
    dir: &Path,
) -> io::Result<Command> {
    let mut command = Command::new(std::env::current_exe()?);
    command
        .arg("campaign")
        .args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--workers", &workers.to_string()])
        .args(["--threads", &args.threads.to_string()])
        .arg("--out")
        .arg(dir)
        .stdin(Stdio::null())
        .stderr(Stdio::piped());
    Ok(command)
}

/// Whether a child's stderr line is the runner's progress line, which
/// it prints as a shard's trials start.
fn is_progress(line: &str) -> bool {
    line.starts_with("[sweep ") && line.contains("] shard ")
}

/// The set-up time in a child's stderr so far, once it holds the start
/// marker and the first progress line: `now` minus the marker's stamp.
fn setup_in(stderr: &[u8], now: u128) -> Option<f64> {
    let text = String::from_utf8_lossy(stderr);
    let mut lines = text.split_inclusive('\n').filter(|l| l.ends_with('\n'));
    let start: u128 = lines
        .find_map(|line| line.trim_end().strip_prefix(START_MARKER))?
        .parse()
        .ok()?;
    lines
        .any(is_progress)
        .then(|| now.saturating_sub(start) as f64 / 1e9)
}

/// Set-up time alone: starts a one-worker campaign child whose stderr
/// goes to a file, polls the file until the runner's first progress line
/// is in it, then stops the child and waits for it.
///
/// The parent polls instead of blocking on a pipe: a blocked reader runs
/// only when the scheduler wakes it, which adds up to a few milliseconds
/// to a set-up that takes about one. The child runs one worker, so it
/// and the polling parent each have a core.
fn probe_setup(args: &Args, workload: Workload, dir: &Path) -> io::Result<f64> {
    let log_path = dir.with_extension("stderr");
    let mut child = campaign_command(args, workload, 1, dir)?
        .stdout(Stdio::null())
        .stderr(std::fs::File::create(&log_path)?)
        .spawn()?;
    let mut poll = || -> io::Result<Option<f64>> {
        let mut log = std::fs::File::open(&log_path)?;
        let (mut seen, mut chunk) = (Vec::new(), [0u8; 4096]);
        loop {
            let read = log.read(&mut chunk)?;
            let now = unix_ns();
            if read > 0 {
                seen.extend_from_slice(&chunk[..read]);
                if let Some(setup) = setup_in(&seen, now) {
                    return Ok(Some(setup));
                }
            } else if child.try_wait()?.is_some() {
                eprint!("{}", String::from_utf8_lossy(&seen));
                return Ok(None);
            } else {
                std::hint::spin_loop();
            }
        }
    };
    let setup = poll();
    child.kill().ok();
    child.wait()?;
    setup?.ok_or_else(|| io::Error::other("campaign child printed no progress"))
}

/// Runs one repetition in a child process at `workers` workers, into
/// `dir`.
fn run_rep(args: &Args, workload: Workload, workers: usize, dir: &Path) -> io::Result<Rep> {
    let mut child = campaign_command(args, workload, workers, dir)?
        .stdout(Stdio::piped())
        .spawn()?;
    let stderr = child.stderr.take().expect("stderr is piped");
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let (report, status) = std::thread::scope(|scope| {
        // Drain stderr so the child never blocks on it; forward all but
        // the progress lines.
        scope.spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if !line.starts_with(START_MARKER) && !is_progress(&line) {
                    eprintln!("{line}");
                }
            }
        });
        let mut report = String::new();
        let read = stdout.read_to_string(&mut report);
        (read.map(|_| report), child.wait())
    });
    let (report, status) = (report?, status?);
    if !status.success() {
        return Err(io::Error::other(format!("campaign child failed: {status}")));
    }
    let report = Json::parse(report.trim()).map_err(io::Error::other)?;
    let field = |key: &str| {
        report
            .get(key)
            .and_then(Json::as_f64)
            .filter(|v| *v > 0.0)
            .ok_or_else(|| io::Error::other(format!("campaign child reported no {key}")))
    };
    Ok(Rep {
        wall_s: field("wall_s")?,
        peak_rss_mb: field("peak_rss_kb")? / 1024.0,
        outputs: inspect(workload, &campaigns(args, workload), dir)?,
    })
}

/// What a run's output files say.
#[derive(Debug, Clone, Default)]
struct Outputs {
    /// FNV-1a digest of each output file.
    digests: digest::Digests,
    /// Raw bytes of each campaign's checkpoint and summary, in
    /// `digests` order.
    bytes: Vec<Vec<u8>>,
    attempted: u64,
    interactions: u64,
    unelected: u64,
    problems: Vec<String>,
}

/// Reads each campaign's `checkpoint.json` and `summary.json` under
/// `dir` and checks the checkpoint against the grid: every shard
/// present with its trial range, every step count within budget.
fn inspect(workload: Workload, specs: &[SweepSpec], dir: &Path) -> io::Result<Outputs> {
    let mut out = Outputs::default();
    for spec in specs {
        let campaign = dir.join(&spec.name);
        for path in [checkpoint_path(&campaign), summary_path(&campaign)] {
            let bytes = std::fs::read(&path)?;
            let name = path.file_name().expect("file path").to_string_lossy();
            out.digests
                .push((format!("{}/{name}", spec.name), fnv1a64(&bytes)));
            out.bytes.push(bytes);
        }
        let text = String::from_utf8_lossy(&out.bytes[out.bytes.len() - 2]).into_owned();
        let checkpoint = Checkpoint::from_text(&text).map_err(io::Error::other)?;
        if checkpoint.fingerprint != spec.fingerprint() {
            out.problems
                .push(format!("{}: fingerprint differs", spec.name));
        }
        let shards = spec.shards();
        if checkpoint.shards.len() != shards.len() {
            out.problems.push(format!(
                "{}: {} shards in the checkpoint, {} in the grid",
                spec.name,
                checkpoint.shards.len(),
                shards.len()
            ));
        }
        for shard in &shards {
            let Some(records) = checkpoint.shards.get(&shard.key()) else {
                out.problems.push(format!("{}: missing", shard.key()));
                continue;
            };
            let trials: Vec<usize> = records.iter().map(|r| r.trial).collect();
            let expected: Vec<usize> =
                (shard.first_trial..shard.first_trial + shard.trials).collect();
            if trials != expected {
                out.problems
                    .push(format!("{}: trials {trials:?}", shard.key()));
            }
            for record in records {
                out.attempted += 1;
                if record.steps.is_some_and(|s| s > spec.max_steps) {
                    out.problems
                        .push(format!("{}: steps beyond budget", shard.key()));
                }
                if record.steps.is_none() {
                    out.unelected += 1;
                }
                out.interactions += simulated_steps(
                    record.steps,
                    record.holding.map(|h| (h.hold, h.held_to_budget)),
                    spec.max_steps,
                );
            }
        }
    }
    if !workload.must_elect() {
        out.unelected = 0;
    }
    Ok(out)
}

/// Compares a run's digests with the ones recorded for its seed, if any.
fn digest_problems(workload: Workload, seed: u64, outputs: &Outputs) -> Vec<String> {
    if !workload.digest_gated() {
        return Vec::new();
    }
    let Some(expected) = digest::recorded(workload.name(), seed) else {
        return Vec::new();
    };
    if expected == outputs.digests {
        Vec::new()
    } else {
        vec![format!(
            "digests at recorded seed {seed} differ: got {:?}, recorded {expected:?}",
            outputs.digests
        )]
    }
}

fn run_dir(args: &Args, workload: Workload) -> PathBuf {
    args.out
        .join(format!("{}-seed{}", workload.name(), args.seed))
}

/// The benchmark proper: one workload, one seed, untraced or traced.
fn bench(args: &Args) -> io::Result<()> {
    let workload = require_workload(args)?;
    let host = Host::probe();
    let host_json = host.to_json(args.seed, args.workers, args.threads);
    println!("host {}", host_json.render_compact());
    let dir = run_dir(args, workload);
    fresh_dir(&dir)?;
    let started_ms = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64);

    let report = if args.trace {
        traced_run(args, workload, &dir)?
    } else {
        untraced_run(args, workload, &dir)?
    };
    for problem in &report.problems {
        println!("check failed: {problem}");
    }
    let outputs_ok = report.problems.is_empty();
    let (attempted, failed) = failure_counts(report.attempted, report.unelected, outputs_ok);
    let correct = outputs_ok && failed == 0;
    println!(
        "failed_frac {} ({failed} of {attempted} trials failed; output checks {})",
        failed as f64 / attempted.max(1) as f64,
        if outputs_ok { "passed" } else { "FAILED" }
    );

    let metric_json = Json::Obj(
        report
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                (
                    (*name).to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(*value)),
                        ("unit".into(), Json::Str((*unit).to_string())),
                    ]),
                )
            })
            .collect(),
    );
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::from_u64(attempted)),
        ("failed".into(), Json::from_u64(failed)),
        ("metrics".into(), metric_json),
    ]);
    let mut record = vec![
        ("workload".to_string(), Json::Str(workload.name().into())),
        ("seed".into(), Json::from_u64(args.seed)),
        ("trace".into(), Json::Bool(args.trace)),
        ("started_unix_ms".into(), Json::from_u64(started_ms)),
        ("samples".into(), Json::from_u64(report.samples)),
        ("host".into(), host_json),
    ];
    if let Json::Obj(members) = &result {
        record.extend(members.iter().cloned());
    }
    let mut log = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(args.out.join("results.jsonl"))?;
    writeln!(log, "{}", Json::Obj(record).render_compact())?;
    println!("{}", result.render_compact());
    Ok(())
}

/// What an untraced or traced run found.
struct RunReport {
    /// Failed output checks.
    problems: Vec<String>,
    /// Trials run.
    attempted: u64,
    /// Trials that did not elect, where electing is required.
    unelected: u64,
    /// (name, unit, value) of every metric the run reports.
    metrics: Vec<(&'static str, &'static str, f64)>,
    /// Untraced repetitions behind the medians.
    samples: u64,
}

/// Set-up probes per untraced run; `setup_s` is their median.
const SETUP_PROBES: usize = 40;

/// Untraced repetitions until `--seconds` have passed; medians of the
/// end-to-end metrics.
fn untraced_run(args: &Args, workload: Workload, dir: &Path) -> io::Result<RunReport> {
    let start = Instant::now();
    let mut setups = Vec::new();
    for _ in 0..SETUP_PROBES {
        setups.push(probe_setup(args, workload, &dir.join("probe"))?);
    }
    let mut reps = Vec::new();
    while reps.is_empty() || start.elapsed().as_secs_f64() < args.seconds as f64 {
        reps.push(run_rep(
            args,
            workload,
            args.workers,
            &dir.join("untraced"),
        )?);
    }
    let mut problems = Vec::new();
    for (i, rep) in reps.iter().enumerate() {
        problems.extend(rep.outputs.problems.iter().cloned());
        if rep.outputs.digests != reps[0].outputs.digests {
            problems.push(format!(
                "repetition {i} produced different outputs than repetition 0"
            ));
        }
    }
    problems.extend(digest_problems(workload, args.seed, &reps[0].outputs));
    let attempted = reps.iter().map(|r| r.outputs.attempted).sum();
    let unelected = reps.iter().map(|r| r.outputs.unelected).sum();

    let series: [Vec<f64>; 4] = [
        reps.iter().map(|r| r.wall_s).collect(),
        reps.iter()
            .map(|r| r.outputs.interactions as f64 / r.wall_s)
            .collect(),
        setups,
        reps.iter().map(|r| r.peak_rss_mb).collect(),
    ];
    println!(
        "{} seed {}: {} untraced repetitions at {} workers × {} threads",
        workload.name(),
        args.seed,
        reps.len(),
        args.workers,
        args.threads
    );
    let mut metrics = Vec::new();
    for ((name, unit), values) in metrics::END_TO_END.iter().zip(&series) {
        let (q1, q3) = quartiles(values);
        let mid = median(values);
        println!(
            "  {name:<20} median {mid:>14.6} {unit:<4} q1 {q1:.6} q3 {q3:.6} spread {:.3} (n={})",
            relative_spread(values),
            values.len()
        );
        metrics.push((*name, *unit, mid));
    }
    Ok(RunReport {
        problems,
        attempted,
        unelected,
        metrics,
        samples: reps.len() as u64,
    })
}

/// Least share of the traced replay the layer spans must cover.
const COVERAGE_MIN: f64 = 0.95;

/// One untraced run at `--workers`, one at a single worker, and the
/// traced single-thread replay; per-layer metrics from the replay.
fn traced_run(args: &Args, workload: Workload, dir: &Path) -> io::Result<RunReport> {
    let specs = campaigns(args, workload);
    let pooled = run_rep(args, workload, args.workers, &dir.join("untraced"))?;
    let serial = run_rep(args, workload, 1, &dir.join("serial"))?;
    let traced_dir = dir.join("traced");
    fresh_dir(&traced_dir)?;
    let mut tracer = Tracer::new();
    for spec in &specs {
        replay(spec, &traced_dir, &mut tracer)?;
    }
    tracer.write_jsonl(&dir.join("spans.jsonl"))?;
    let traced = inspect(workload, &specs, &traced_dir)?;

    let mut problems = Vec::new();
    for outputs in [&pooled.outputs, &serial.outputs, &traced] {
        problems.extend(outputs.problems.iter().cloned());
    }
    for (i, (file, _)) in traced.digests.iter().enumerate() {
        if traced.bytes[i] != pooled.outputs.bytes[i] {
            problems.push(format!(
                "traced replay's {file} differs from the untraced run at {} workers",
                args.workers
            ));
        }
        if serial.outputs.bytes[i] != pooled.outputs.bytes[i] {
            problems.push(format!(
                "{file} differs between 1 and {} workers",
                args.workers
            ));
        }
    }
    problems.extend(digest_problems(workload, args.seed, &pooled.outputs));
    let attempted = pooled.outputs.attempted + serial.outputs.attempted + traced.attempted;
    let unelected = pooled.outputs.unelected + serial.outputs.unelected + traced.unelected;

    let layers = breakdown(tracer.spans(), args.workers, pooled.wall_s, serial.wall_s);
    println!(
        "{} seed {}: untraced {:.3} s at {} workers, {:.3} s at 1 worker; traced replay {:.3} s",
        workload.name(),
        args.seed,
        pooled.wall_s,
        args.workers,
        serial.wall_s,
        layers.traced_s
    );
    println!("  layer self time as a share of the traced replay:");
    for (layer, share) in &layers.shares {
        println!("    {layer:<28} {:>6.2}%", share * 100.0);
    }
    let coverage = layers.metric("trace.coverage");
    if !(COVERAGE_MIN..=1.0).contains(&coverage) {
        println!("  warning: trace.coverage {coverage:.4} is outside [{COVERAGE_MIN}, 1]");
    }
    let mut metrics = Vec::new();
    for ((name, value), (expected, unit)) in layers.metrics.iter().zip(metrics::PER_LAYER) {
        debug_assert_eq!(*name, expected);
        println!("  {name:<34} {value:>16.6} {unit}");
        metrics.push((*name, unit, *value));
    }
    println!("  spans: {}", dir.join("spans.jsonl").display());
    Ok(RunReport {
        problems,
        attempted,
        unelected,
        metrics,
        samples: 1,
    })
}

/// Runs each digest-gated workload once per seed and prints the digest
/// table to stdout (to be saved as `digests.json`).
fn record_digests(args: &Args) -> io::Result<()> {
    let (first, last) = args
        .seeds
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "--seeds is required"))?;
    let mut table = Vec::new();
    for workload in Workload::ALL.into_iter().filter(|w| w.digest_gated()) {
        let mut seeds = Vec::new();
        for seed in first..=last {
            let at_seed = Args {
                seed,
                ..args.clone()
            };
            let dir = run_dir(&at_seed, workload).join("record");
            let rep = run_rep(&at_seed, workload, args.workers, &dir)?;
            if !rep.outputs.problems.is_empty() {
                return Err(io::Error::other(format!(
                    "{} seed {seed}: {:?}",
                    workload.name(),
                    rep.outputs.problems
                )));
            }
            eprintln!("recorded {} seed {seed}", workload.name());
            seeds.push((seed, rep.outputs.digests));
        }
        table.push((workload.name().to_string(), seeds));
    }
    print!("{}", digest::render_table(&table));
    io::stdout().flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_runs_from_the_start_stamp_to_the_first_progress_line() {
        let start = format!("{START_MARKER}1000000000\n");
        let progress = "[sweep s] shard 1/4: token/cycle/64/s0 (n=64, m=64, engine=dense)\n";
        assert_eq!(setup_in(start.as_bytes(), 1_002_000_000), None);
        let both = format!("{start}{progress}");
        assert_eq!(setup_in(both.as_bytes(), 1_002_000_000), Some(0.002));
        // A progress line still being written does not count yet.
        let partial = &both.as_bytes()[..both.len() - 1];
        assert_eq!(setup_in(partial, 1_002_000_000), None);
        // Nor does one without a start stamp before it.
        assert_eq!(setup_in(progress.as_bytes(), 1_002_000_000), None);
    }
}
