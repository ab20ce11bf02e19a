//! One benchmark run of one workload: warm-up, timed rounds, then the
//! traced round and the layer probes.

use crate::cli::RunOpts;
use crate::probes;
use crate::report::{per_layer, Counts, Probes, Report, Timings};
use crate::spans::Spans;
use crate::stats::Summary;
use crate::workloads::{check, run_round, time_setup, traced, Round, DEFAULT_SEED};
use hp_sdp::config::ExperimentConfig;
use hp_sdp::result::ExperimentResult;
use std::hint::black_box;
use std::time::Instant;

/// Checked-round bookkeeping. Every round is held to one digest: the
/// pinned one at the default seed, otherwise the first passing round's.
struct Tally {
    attempted: u64,
    failures: Vec<String>,
    digest: Option<u64>,
}

impl Tally {
    fn check(&mut self, what: &str, round: &Round) {
        self.attempted += 1;
        match check(round, self.digest) {
            Ok(d) => {
                self.digest.get_or_insert(d);
            }
            Err(e) => self.failures.push(format!("{what}: {e}")),
        }
    }
}

/// Records a round's `setup` and `run` spans under a new `name` span;
/// returns the parent's id, still open.
fn round_spans(spans: &mut Spans, name: &str, r: &Round) -> usize {
    let id = spans.add(name, None, r.start, r.end);
    spans.add("setup", Some(id), r.start, r.setup_end);
    spans.add("run", Some(id), r.setup_end, r.end);
    id
}

/// Runs the workload as `opts` asks and returns what it measured, with
/// the spans recorded around every call into the simulator.
pub fn run(opts: &RunOpts) -> (Report, Spans) {
    let wl = opts.workload;
    let cfg = wl.config(opts.seed);
    let rounds = wl.rounds_for(opts.seconds);
    let pinned = (opts.seed == DEFAULT_SEED).then_some(wl.pinned_digest);
    let mut spans = Spans::default();
    let mut tally = Tally {
        attempted: 0,
        failures: Vec::new(),
        digest: pinned,
    };

    // Untimed warm-up at one fabric worker: holding every timed round to
    // its digest checks worker-count invariance on every run.
    let warm = run_round(&cfg.clone().with_par_workers(1));
    round_spans(&mut spans, "warmup", &warm);
    tally.check("warm-up", &warm);
    drop(warm);

    let mut setup_s = Vec::new();
    let mut run_s = Vec::new();
    let mut events_per_s = Vec::new();
    let mut loop_s = Vec::new();
    let mut teardown_s = Vec::new();
    for i in 0..rounds {
        let r = run_round(&cfg);
        round_spans(&mut spans, "round", &r);
        tally.check(&format!("round {i}"), &r);
        setup_s.push(r.setup_s());
        if let Ok(res) = &r.result {
            let events = res.kernel_profile().map_or(0, |p| p.total_events());
            run_s.push(r.run_s());
            events_per_s.push(events as f64 / r.run_s());
            loop_s.push(res.wall_secs());
            teardown_s.push(r.run_s() - res.wall_secs());
        }
    }
    if wl.extra_setups > 0 {
        let t0 = Instant::now();
        let mut timed = Vec::with_capacity(wl.extra_setups);
        for _ in 0..wl.extra_setups {
            timed.push(time_setup(&cfg));
        }
        let id = spans.add("setups", None, t0, Instant::now());
        for (a, b) in timed {
            spans.add("setup", Some(id), a, b);
            setup_s.push((b - a).as_secs_f64());
        }
    }

    // Read before the traced round, whose trace ring and metrics windows
    // would otherwise make the peak depend on `--trace`.
    let peak_rss = peak_rss_mib();
    let mut timings = Timings {
        run_s: Summary::of(&run_s).median,
        loop_s: Summary::of(&loop_s).median,
        teardown_s: Summary::of(&teardown_s).median,
        ..Timings::default()
    };
    let per_layer = if opts.trace {
        let r = run_round(&traced(&cfg));
        let id = round_spans(&mut spans, "traced", &r);
        tally.check("traced round", &r);
        timings.traced_run_s = r.run_s();
        let counts = match &r.result {
            Ok(res) => {
                let t0 = Instant::now();
                emit(res);
                let t1 = Instant::now();
                spans.add("emit", Some(id), t0, t1);
                timings.emit_s = (t1 - t0).as_secs_f64();
                Counts::of(res)
            }
            Err(_) => Counts::default(),
        };
        // Free the traced result (the flash crowd's is large) before the
        // probes build their own structures.
        drop(r);
        let probes = probe(&cfg, &counts, &mut spans);
        per_layer(&counts, &timings, &probes)
    } else {
        Vec::new()
    };

    let failed = tally.failures.len() as u64;
    let end_to_end = vec![
        Summary::of(&run_s),
        Summary::of(&events_per_s),
        Summary::of(&setup_s),
        Summary::of(&[peak_rss]),
        Summary::of(&[failed as f64 / tally.attempted as f64]),
    ];
    let report = Report {
        workload: wl.name,
        seed: opts.seed,
        seconds: opts.seconds,
        rounds,
        attempted: tally.attempted,
        failed,
        failures: tally.failures,
        digest: tally.digest,
        pinned,
        end_to_end,
        per_layer,
    };
    (report, spans)
}

/// The four artifact emitters an observed run offers.
fn emit(r: &ExperimentResult) {
    black_box(r.chrome_trace_json());
    black_box(r.metrics_jsonl());
    black_box(r.profile_json());
    black_box(r.attrib_json());
}

/// Runs every layer probe at the workload's parameters.
fn probe(cfg: &ExperimentConfig, counts: &Counts, spans: &mut Spans) -> Probes {
    let mut mem_cfg = cfg.machine.mem_config();
    mem_cfg.prefetch_degree = cfg.prefetch_degree;
    mem_cfg.fast_path = cfg.mem_fast_path;
    mem_cfg.silent_evictions = cfg.silent_evictions;
    let (snoop_ns, select_ns) = spans.time("probe.device", || probes::device_ns(cfg));
    Probes {
        event_ns: spans.time("probe.event", || {
            probes::event_ns(counts.queue_depth as usize)
        }),
        mem_ns: spans.time("probe.mem", || probes::mem_ns(mem_cfg)),
        snoop_ns,
        select_ns,
        traffic_ns: spans.time("probe.traffic", || probes::traffic_ns(cfg)),
        rendezvous_ns: spans.time("probe.fabric", || probes::rendezvous_ns(cfg.par_workers)),
    }
}

/// Peak resident set (`VmHWM`) of this process so far, MiB; NaN where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}
