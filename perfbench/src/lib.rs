//! The repository benchmark: three fixed HOG workloads driven through the
//! public hog-core pieces, reporting host and simulated end-to-end metrics
//! and, from a separate traced run, per-layer metrics.
//!
//! Setup is `SubmissionSchedule::facebook_truncated` → `Cluster::new` →
//! `Cluster::bootstrap_sched`; the run is `Simulation::run` followed by
//! `driver::collect_result`. Untraced runs drive `Cluster` directly; the
//! traced run wraps it in [`trace::Traced`]. See `README.md` for the
//! metric catalogue and what each metric is expected to move.

pub mod trace;

use hog_core::driver::{collect_result, RunResult};
use hog_core::event::Event;
use hog_core::{Cluster, ClusterConfig, SchedPolicy};
use hog_sim_core::engine::{Model, RunStats};
use hog_sim_core::{SimDuration, SimTime, Simulation};
use hog_workload::{StragglerMix, SubmissionSchedule};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The pinned workload seed, used when `--workload-seed` is absent.
pub const DEFAULT_SEED: u64 = 7;
/// Jobs in the truncated Facebook schedule.
const JOBS: usize = 88;
/// Simulated-time safety horizon of every run (the scale study's).
const HORIZON: SimDuration = SimDuration::from_secs(100 * 3600);
/// Runaway guard on the number of events one run may handle.
const EVENT_BUDGET: u64 = 2_000_000_000;
/// Set-ups timed back to back in each burst for `setup_s`. A burst runs
/// before the first run and after every run, so the median samples the
/// machine across the whole invocation, not only its first second.
pub const SETUPS: usize = 8;

/// End-to-end metrics, printed with `--trace 0`: (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_makespan_s", "sim_s"),
    ("sim_job_p50_s", "sim_s"),
    ("sim_job_p88_s", "sim_s"),
    ("sim_replica_gb", "GB"),
    ("job_ok_frac", "frac"),
];

/// Per-layer metrics, printed with `--trace 1`: (name, unit).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim-core.events", "count"),
    ("sim-core.dispatches", "count"),
    ("sim-core.batch_mean", "events"),
    ("sim-core.peak_queue", "count"),
    ("sim-core.self_s", "s"),
    ("sim-core.ns_per_event", "ns"),
    ("sim-core.events_per_s", "1/s"),
    ("sim-core.allocs_per_event", "count"),
    ("net.ticks", "count"),
    ("net.tick_s", "s"),
    ("net.tick_p50_us", "us"),
    ("net.tick_p99_us", "us"),
    ("net.recomputes", "count"),
    ("net.recompute_work", "count"),
    ("net.allocs", "count"),
    ("mapreduce.s", "s"),
    ("mapreduce.heartbeats", "count"),
    ("mapreduce.heartbeat_s", "s"),
    ("mapreduce.heartbeat_ns", "ns"),
    ("mapreduce.task_events", "count"),
    ("mapreduce.task_event_s", "s"),
    ("mapreduce.submit_s", "s"),
    ("mapreduce.allocs", "count"),
    ("mapreduce.node_local_frac", "frac"),
    ("mapreduce.speculative", "count"),
    ("mapreduce.attempt_failures", "count"),
    ("hdfs.s", "s"),
    ("hdfs.uploads", "count"),
    ("hdfs.upload_s", "s"),
    ("hdfs.allocs", "count"),
    ("hdfs.repl_done", "count"),
    ("hdfs.repl_fail_frac", "frac"),
    ("hdfs.blocks_lost", "count"),
    ("hdfs.missing_blocks", "count"),
    ("hdfs.repair_gb", "GB"),
    ("core.s", "s"),
    ("core.master_ticks", "count"),
    ("core.master_tick_s", "s"),
    ("core.master_tick_p50_us", "us"),
    ("core.master_tick_p99_us", "us"),
    ("core.allocs", "count"),
    ("grid.events", "count"),
    ("grid.s", "s"),
    ("grid.preemptions", "count"),
    ("grid.node_starts", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead_frac", "frac"),
];

/// The benchmark's fixed workloads. Each replays the paper's 88-job
/// truncated Facebook schedule (open-loop Poisson arrivals, 14 s mean).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's smallest §V pool; the fluid network dominates.
    Paper100,
    /// The 10k-node tier; heartbeats, the engine queue and placement
    /// dominate.
    Scale10k,
    /// Failure-aware scheduling under OSG-calibrated churn and
    /// stragglers; the namenode replication monitor dominates.
    Churn300,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Paper100, Workload::Scale10k, Workload::Churn300];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper100 => "paper_100",
            Workload::Scale10k => "scale_10k",
            Workload::Churn300 => "churn_300",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The cluster configuration at workload seed `seed`.
    pub fn config(self, seed: u64) -> ClusterConfig {
        match self {
            Workload::Paper100 => ClusterConfig::hog(100, seed),
            Workload::Scale10k => ClusterConfig::hog(10_000, seed),
            Workload::Churn300 => ClusterConfig::hog(300, seed)
                .with_scheduler(SchedPolicy::FailureAware)
                .with_stragglers(StragglerMix::osg_default())
                .with_calibrated_churn_at(8.0),
        }
    }

    /// The pinned outcome fingerprint at `seed`, where one is known.
    pub fn pin(self, seed: u64) -> Option<&'static str> {
        if seed != DEFAULT_SEED {
            return None;
        }
        Some(match self {
            Workload::Paper100 => "cf17f90b65a09cc8",
            Workload::Scale10k => "2e14de2b6abf2785",
            Workload::Churn300 => "6ac8ee2fbe508388",
        })
    }
}

/// The submission-schedule seed derived from the workload seed.
pub fn schedule_seed(seed: u64) -> u64 {
    1000 + seed
}

/// A set-up run, ready for `Simulation::run`.
pub struct Prepared<M: Model<Event = Event>> {
    /// The generated submission schedule.
    pub schedule: SubmissionSchedule,
    /// The bootstrapped cluster.
    pub cluster: Cluster,
    /// The simulation holding the bootstrap events.
    pub sim: Simulation<M>,
}

/// Set up `workload` at `seed` for a simulation driving model type `M`.
pub fn prepare<M: Model<Event = Event>>(workload: Workload, seed: u64) -> Prepared<M> {
    let schedule = SubmissionSchedule::facebook_truncated(schedule_seed(seed));
    let mut cluster = Cluster::new(workload.config(seed), &schedule);
    let mut sim = Simulation::new()
        .with_horizon(SimTime::ZERO + HORIZON)
        .with_event_budget(EVENT_BUDGET);
    cluster.bootstrap_sched(&mut sim.scheduler());
    Prepared {
        schedule,
        cluster,
        sim,
    }
}

/// The judged outcome of one run: its simulated metrics and whether it
/// passed the output check.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    /// `hog_bench::outcome_fingerprint` of the run.
    pub fingerprint: String,
    /// Jobs submitted.
    pub jobs: usize,
    /// Jobs failed or unfinished; every job when the check failed.
    pub failed_jobs: usize,
    /// Why the output check failed, if it did.
    pub problem: Option<String>,
    /// Simulated first submission → last job terminal, seconds.
    pub makespan_s: f64,
    /// Median simulated job response, seconds.
    pub job_p50_s: f64,
    /// 88th-percentile simulated job response, seconds.
    pub job_p88_s: f64,
    /// Replica bytes materialised (writes plus repairs), GB.
    pub replica_gb: f64,
}

impl Outcome {
    /// The outcome of a run that panicked: every job counts as failed.
    pub fn panicked() -> Self {
        Outcome {
            fingerprint: String::new(),
            jobs: JOBS,
            failed_jobs: JOBS,
            problem: Some("the run panicked".to_string()),
            makespan_s: 0.0,
            job_p50_s: 0.0,
            job_p88_s: 0.0,
            replica_gb: 0.0,
        }
    }
}

/// Check a run's output and compute its simulated metrics. The run must
/// not stop early, every job must reach a terminal state, and at a pinned
/// seed the outcome fingerprint must equal the pin. A failed check counts
/// every job of the run as failed.
pub fn judge(workload: Workload, seed: u64, r: &RunResult) -> Outcome {
    let fingerprint = hog_bench::outcome_fingerprint(r);
    let mut problem = None;
    if r.stopped_early {
        problem = Some(format!(
            "the run stopped early: {}",
            r.stuck_jobs.join("; ")
        ));
    } else if let Some(j) = r.jobs.iter().find(|j| j.finished.is_none()) {
        problem = Some(format!("job {} never reached a terminal state", j.index));
    } else if let Some(pin) = workload.pin(seed).filter(|&pin| pin != fingerprint) {
        problem = Some(format!(
            "fingerprint {fingerprint} differs from the pin {pin}"
        ));
    }
    // Unfinished jobs count as missing any limit: they sort last, at the
    // horizon.
    let mut responses: Vec<f64> = r
        .jobs
        .iter()
        .map(|j| {
            j.response()
                .map_or(HORIZON.as_secs_f64(), |d| d.as_secs_f64())
        })
        .collect();
    responses.sort_by(f64::total_cmp);
    let failed_jobs = if problem.is_some() {
        r.jobs.len()
    } else {
        r.jobs_failed()
    };
    Outcome {
        fingerprint,
        jobs: r.jobs.len(),
        failed_jobs,
        problem,
        makespan_s: r.response_time.map_or(0.0, |d| d.as_secs_f64()),
        job_p50_s: nearest_rank(&responses, 0.50),
        job_p88_s: nearest_rank(&responses, 0.88),
        replica_gb: r.replica_bytes as f64 / 1e9,
    }
}

/// Nearest-rank percentile `p` of `sorted` (0 when empty).
pub fn nearest_rank<T: Copy + Default>(sorted: &[T], p: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (0 when empty); the mean of the middle pair when
/// the count is even.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Host timings and outcomes of the untraced runs of one invocation.
#[derive(Default)]
pub struct Runs {
    /// Seconds of each set-up timed by [`Runs::time_setups`].
    pub setup_s: Vec<f64>,
    /// Seconds in `Simulation::run`, one per run.
    pub wall_s: Vec<f64>,
    /// One per run.
    pub outcomes: Vec<Outcome>,
}

impl Runs {
    /// Record one untraced run of `workload` at `seed`, driving `Cluster`
    /// directly. Returns false when the run panicked.
    pub fn run(&mut self, workload: Workload, seed: u64) -> bool {
        let result = std::panic::catch_unwind(|| {
            let Prepared {
                schedule,
                mut cluster,
                mut sim,
            } = prepare::<Cluster>(workload, seed);
            let t = Instant::now();
            let stats: RunStats = sim.run(&mut cluster);
            let wall = t.elapsed().as_secs_f64();
            let r = collect_result(cluster, &schedule, stats);
            (wall, judge(workload, seed, &r))
        });
        let Ok((wall, outcome)) = result else {
            self.outcomes.push(Outcome::panicked());
            return false;
        };
        self.wall_s.push(wall);
        self.outcomes.push(outcome);
        true
    }

    /// Time `n` back-to-back set-ups of `workload` at `seed`, dropping
    /// each. One untimed set-up goes first: right after a run it meets the
    /// caches the run left cold, and mixing the two kinds would make the
    /// median jump between them.
    pub fn time_setups(&mut self, workload: Workload, seed: u64, n: usize) {
        drop(prepare::<Cluster>(workload, seed));
        for _ in 0..n {
            let t = Instant::now();
            let prepared = prepare::<Cluster>(workload, seed);
            self.setup_s.push(t.elapsed().as_secs_f64());
            drop(prepared);
        }
    }
}

/// Call `step` until it returns false or another call would likely end
/// past `budget`, judged by the last call's duration; always at least once.
pub fn repeat_within(budget: Duration, mut step: impl FnMut() -> bool) {
    let start = Instant::now();
    loop {
        let call = Instant::now();
        if !step() || start.elapsed() + call.elapsed() > budget {
            return;
        }
    }
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The check verdict over a set of outcomes: each outcome's own check,
/// plus identical simulated results across them (the simulator is
/// deterministic, so every run at one seed must agree).
pub fn verdict(outcomes: &[Outcome]) -> Result<(), String> {
    if let Some(p) = outcomes.iter().find_map(|o| o.problem.clone()) {
        return Err(p);
    }
    match outcomes.split_first() {
        None => Err("no run completed".to_string()),
        Some((first, rest)) => match rest.iter().find(|o| *o != first) {
            Some(o) => Err(format!(
                "runs disagree: fingerprint {} vs {}",
                first.fingerprint, o.fingerprint
            )),
            None => Ok(()),
        },
    }
}

/// The end-to-end metric values of an untraced series, in
/// [`END_TO_END`] order.
pub fn end_to_end(runs: &Runs, rss_mb: f64) -> Vec<f64> {
    let o = runs
        .outcomes
        .last()
        .cloned()
        .unwrap_or_else(Outcome::panicked);
    let jobs: usize = runs.outcomes.iter().map(|o| o.jobs).sum();
    let failed: usize = runs.outcomes.iter().map(|o| o.failed_jobs).sum();
    vec![
        median(&runs.wall_s),
        median(&runs.setup_s),
        rss_mb,
        o.makespan_s,
        o.job_p50_s,
        o.job_p88_s,
        o.replica_gb,
        1.0 - failed as f64 / jobs.max(1) as f64,
    ]
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and the named metrics with their units.
pub fn result_json(
    correct: bool,
    attempted: usize,
    failed: usize,
    catalogue: &[(&str, &str)],
    values: &[f64],
) -> String {
    assert_eq!(catalogue.len(), values.len(), "one value per metric");
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, ((name, unit), v)) in catalogue.iter().zip(values).enumerate() {
        let v = if v.is_finite() { *v } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

/// Heap padding to hold for a whole invocation. Its size, drawn from the
/// measurement seed, shifts the addresses of everything allocated after
/// it, so runs at different seeds sample different heap layouts instead
/// of timing one layout over and over. The simulated workload does not
/// depend on it.
pub fn layout_pad(seed: u64) -> Vec<u8> {
    let mut x = seed.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 29;
    // 0 to 64 KiB in 16-byte steps: below malloc's mmap threshold, so it
    // lands in the heap the simulation allocates from.
    std::hint::black_box(vec![0u8; 16 * (x % 4096) as usize])
}

/// Per-column medians of equally long rows.
pub fn median_rows(rows: &[Vec<f64>]) -> Vec<f64> {
    let width = rows.first().map_or(0, Vec::len);
    (0..width)
        .map(|i| median(&rows.iter().map(|r| r[i]).collect::<Vec<_>>()))
        .collect()
}

/// Command-line arguments shared by both binaries.
#[derive(Clone, Copy, Debug)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// The measurement seed: picks the heap layout (see [`layout_pad`]).
    pub seed: u64,
    /// The workload seed: the cluster seed, and the schedule seed via
    /// [`schedule_seed`]. Pinned fingerprints exist only for
    /// [`DEFAULT_SEED`].
    pub workload_seed: u64,
    /// Host seconds the measured runs may take.
    pub seconds: u64,
    /// Whether to report the per-layer metrics of a traced run.
    pub trace: bool,
}

impl Args {
    /// Parse `--workload NAME [--seed N] [--workload-seed N] [--seconds N]
    /// [--trace 0|1]`.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut workload = None;
        let mut seed = 0;
        let mut workload_seed = DEFAULT_SEED;
        let mut seconds = 10;
        let mut trace = false;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: not a whole number: {value}"))
            };
            match flag.as_str() {
                "--workload" => {
                    let w = Workload::parse(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?;
                    workload = Some(w);
                }
                "--seed" => seed = number()?,
                "--workload-seed" => workload_seed = number()?,
                "--seconds" => seconds = number()?,
                "--trace" => trace = number()? != 0,
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            workload_seed,
            seconds,
            trace,
        })
    }
}
