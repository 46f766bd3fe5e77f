//! Host-time benchmark of the Figure 3, Figure 4 and SLO harnesses.
//!
//! `kaffeos-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Every op is one fresh kernel doing one job. Op kinds run round-robin in
//! a seeded order until `--seconds` have passed, every op's output is
//! checked, and rates are taken from the fastest op of each kind. The last
//! line of standard output is the JSON result; the lines before it carry
//! the host fingerprint and the per-kind figures. See README.md.

mod host;
mod ops;
mod span;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use host::{median, quantile, Rng};
use kaffeos_heap::costs::cycles_to_seconds;
use ops::{Counts, Kind, OpOut};
use span::Tracer;

const USAGE: &str = "usage: kaffeos-perfbench --workload <spec-mix|servlet-memhog|slo-scenarios> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Set-up passes per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// The fast-tail estimator: the quantile of each kind's op times that
/// rates are built from. 0 is best-of-K (see README.md for the choice).
const FAST_Q: f64 = 0.0;

/// Layers that get spans from the benchmark's own calls.
const SPAN_LAYERS: [&str; 6] = ["bench", "cupc", "core", "analyze", "vm", "workloads"];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag.as_str(), value.as_str());
    }
    let get = |name: &str| flags.get(name).copied().ok_or(format!("missing {name}"));
    let workload = get("--workload")?;
    let workload = ops::WORKLOADS
        .into_iter()
        .find(|&w| w == workload)
        .ok_or_else(|| format!("unknown workload {workload}"))?;
    let number = |name: &str| -> Result<u64, String> {
        get(name)?
            .parse()
            .map_err(|_| format!("{name} is not a whole number"))
    };
    let seconds = number("--seconds")?;
    if seconds == 0 || seconds > 120 {
        return Err("--seconds must be 1 to 120".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    if flags.len() != 4 {
        return Err("unexpected arguments".into());
    }
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds,
        trace,
    })
}

/// One op kind's reference output and timings within a run.
struct KindRun {
    kind: Kind,
    /// Whether the kind belongs to the measured workload (else it is part
    /// of the traced run's census).
    own: bool,
    /// Output of the first successful op; every later op must match it.
    reference: Option<OpOut>,
    /// Ops run (timed or not) and how many failed.
    ran: u64,
    failed: u64,
    /// Seconds of each untraced timed op.
    times: Vec<f64>,
    /// Seconds of each traced op, and their tracer op ids.
    traced: Vec<f64>,
    traced_ops: Vec<u32>,
    /// Host nanoseconds the JIT spent compiling, per op.
    compile_ns: Vec<f64>,
    /// Methods the traced analysis pass walked.
    methods: u64,
}

impl KindRun {
    fn new(kind: Kind, own: bool) -> Self {
        KindRun {
            kind,
            own,
            reference: None,
            ran: 0,
            failed: 0,
            times: Vec::new(),
            traced: Vec::new(),
            traced_ops: Vec::new(),
            compile_ns: Vec::new(),
            methods: 0,
        }
    }

    fn counts(&self) -> Counts {
        self.reference
            .as_ref()
            .map(|r| r.counts)
            .unwrap_or_default()
    }
}

struct Bench {
    /// Seed of every `run_scenario` call, drawn from the run's seed.
    scenario_seed: u64,
    tracer: Tracer,
    untraced: Tracer,
    runs: Vec<KindRun>,
    failures: Vec<String>,
}

impl Bench {
    /// Runs one op of kind `k` and checks it; returns its seconds when the
    /// check passed.
    fn exec(&mut self, k: usize, traced: bool) -> Option<f64> {
        let tr = if traced {
            &mut self.tracer
        } else {
            &mut self.untraced
        };
        let kind = self.runs[k].kind;
        let started = Instant::now();
        let out = ops::run(kind, self.scenario_seed, tr);
        let secs = started.elapsed().as_secs_f64();
        let op = tr.op();
        let run = &mut self.runs[k];
        run.ran += 1;
        let verdict = out.and_then(|out| {
            run.compile_ns.push(out.counts.jit_compile_ns as f64);
            run.methods = run.methods.max(out.counts.methods);
            match &run.reference {
                None => {
                    run.reference = Some(out);
                    Ok(())
                }
                Some(r) if r.check == out.check => Ok(()),
                Some(r) => Err(format!(
                    "output differs from the first repeat:\n{}\n---\n{}",
                    r.check, out.check
                )),
            }
        });
        match verdict {
            Ok(()) => {
                if traced {
                    run.traced_ops.push(op);
                }
                Some(secs)
            }
            Err(e) => {
                run.failed += 1;
                self.failures.push(format!("{}: {e}", kind.label()));
                None
            }
        }
    }

    /// Runs every kind in `order` once. A traced round runs each kind
    /// untraced and traced, in the order `traced_first` says.
    fn round(&mut self, order: &[usize], timed: bool, traced_first: Option<bool>) {
        let modes: &[bool] = match traced_first {
            None => &[false],
            Some(false) => &[false, true],
            Some(true) => &[true, false],
        };
        for &k in order {
            for &t in modes {
                if let (Some(secs), true) = (self.exec(k, t), timed) {
                    let run = &mut self.runs[k];
                    if t {
                        run.traced.push(secs);
                    } else {
                        run.times.push(secs);
                    }
                }
            }
        }
    }
}

/// A metric value and its unit.
type Metrics = Vec<(String, f64, &'static str)>;

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("kaffeos-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The JIT tier honours an environment toggle; measure the default.
    std::env::remove_var("KAFFEOS_JIT");

    let fingerprint = host::fingerprint();
    let ref_start = host::ref_loop_ms();
    let setup_started = Instant::now();
    let mut rng = Rng::new(args.seed);
    let own = ops::kinds(args.workload);
    let mut bench = Bench {
        scenario_seed: 1 + rng.next() % 1000,
        tracer: Tracer::new(true),
        untraced: Tracer::new(false),
        runs: own.iter().map(|&k| KindRun::new(k, true)).collect(),
        failures: Vec::new(),
    };
    let own_ks: Vec<usize> = (0..own.len()).collect();

    // Set-up runs the kinds in their fixed order, so the memory peak it
    // leaves does not depend on the seed. The first pass comes before any
    // timed op; the others are re-done at even points of the timed window.
    let setup_pass = |bench: &mut Bench, started: Instant| {
        bench.round(&own_ks, false, None);
        started.elapsed().as_secs_f64()
    };
    let mut setup = vec![setup_pass(&mut bench, setup_started)];
    let peak_rss_mb = host::peak_rss_mb();

    let window = Duration::from_secs(args.seconds);
    let timing = Instant::now();
    let mut rounds = 0;
    while rounds == 0 || timing.elapsed() < window {
        if setup.len() < SETUP_REPS
            && timing.elapsed() >= window * setup.len() as u32 / SETUP_REPS as u32
        {
            setup.push(setup_pass(&mut bench, Instant::now()));
        }
        let order: Vec<usize> = rng.permutation(own.len());
        bench.round(&order, true, args.trace.then_some(rounds % 2 == 1));
        rounds += 1;
    }

    let mut planes = None;
    if args.trace {
        // Census: the other workloads' kinds, so every per-layer time is
        // measured on every workload.
        for w in ops::WORKLOADS.into_iter().filter(|&w| w != args.workload) {
            for kind in ops::kinds(w) {
                if !matches!(kind, Kind::Servlet(n) if n != 20) {
                    bench.runs.push(KindRun::new(kind, false));
                }
            }
        }
        let census: Vec<usize> = (own.len()..bench.runs.len()).collect();
        bench.round(&census, true, Some(false));
        planes = Some(planes_slice());
    }

    // The library harness is the reference where one exists; one call per
    // kind, outside the timed ops.
    let mut library_checks = 0;
    for run in bench.runs.iter_mut().filter(|r| r.own) {
        let Some(expected) = ops::library_check(run.kind) else {
            continue;
        };
        library_checks += 1;
        let got = run.reference.as_ref().map(|r| r.check.as_str());
        if got != Some(expected.as_str()) {
            bench.failures.push(format!(
                "{}: differs from the library harness:\n{expected}\n---\n{got:?}",
                run.kind.label()
            ));
            run.failed = run.ran + 1;
        }
    }
    let ref_end = host::ref_loop_ms();

    let attempted: u64 = bench.runs.iter().map(|r| r.ran).sum::<u64>() + library_checks;
    let failed: u64 = bench.runs.iter().map(|r| r.failed).sum();
    for f in bench.failures.iter().take(5) {
        println!("# FAILED {f}");
    }

    println!("# host {fingerprint} ref_ms_start={ref_start:.3} ref_ms_end={ref_end:.3}");
    println!("# setup passes s: {setup:?}");
    println!(
        "# workload={} seed={} scenario_seed={} rounds={rounds} estimator=quantile({FAST_Q})",
        args.workload, args.seed, bench.scenario_seed
    );
    let owned: Vec<&KindRun> = bench.runs.iter().filter(|r| r.own).collect();
    for r in &owned {
        let ms: Vec<f64> = r.times.iter().map(|s| s * 1e3).collect();
        println!(
            "# kind {} n={} min={:.2} p10={:.2} p25={:.2} p50={:.2} p90={:.2} ms",
            r.kind.label(),
            ms.len(),
            quantile(&ms, 0.0),
            quantile(&ms, 0.1),
            quantile(&ms, 0.25),
            quantile(&ms, 0.5),
            quantile(&ms, 0.9),
        );
    }
    let sim: f64 = owned
        .iter()
        .map(|r| {
            r.reference
                .as_ref()
                .map_or(0.0, |o| cycles_to_seconds(o.sim_cycles))
        })
        .sum();
    let units: u64 = owned
        .iter()
        .map(|r| r.reference.as_ref().map_or(0, |o| o.units))
        .sum();
    let pass_secs = |q: f64| owned.iter().map(|r| quantile(&r.times, q)).sum::<f64>();
    for (label, q) in [("min", 0.0), ("p10", 0.1), ("p25", 0.25), ("p50", 0.5)] {
        println!(
            "# estimator {label}: sim_speed={:.4} requests_per_s={:.2}",
            sim / pass_secs(q),
            units as f64 / pass_secs(q)
        );
    }

    let metrics = if args.trace {
        per_layer(&bench, &args, (ref_start + ref_end) / 2.0, planes)
    } else {
        let pass = pass_secs(FAST_Q);
        vec![
            ("sim_speed".into(), sim / pass, "x"),
            ("requests_per_s".into(), units as f64 / pass, "1/s"),
            ("setup_s".into(), median(&setup), "s"),
            ("peak_rss_mb".into(), peak_rss_mb, "MB"),
        ]
    };
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && finite && attempted > 0,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

/// Host seconds of one fixed slice of spec-mix jobs with the trace,
/// profile and heapprof planes on or off, and the trace events recorded.
fn run_slice(on: bool) -> (f64, u64) {
    let started = Instant::now();
    let mut events = 0;
    for b in kaffeos_workloads::all_benchmarks() {
        let mut config = kaffeos_workloads::platforms()[4].config();
        config.trace = on;
        config.profile = on;
        config.heapprof = on;
        let mut os = kaffeos::KaffeOs::new(config);
        os.register_image(b.name, b.source)
            .expect("benchmark compiles");
        let n = ops::spec_n(&b).to_string();
        os.spawn(b.name, &n, None).expect("benchmark spawns");
        std::hint::black_box(os.run(None));
        events += os.metrics().events_recorded;
    }
    (started.elapsed().as_secs_f64(), events)
}

/// `trace.planes_x` (best of five interleaved on/off slices, alternating
/// which goes first) and `trace.events`.
fn planes_slice() -> (f64, u64) {
    let (mut off, mut on, mut events) = (f64::INFINITY, f64::INFINITY, 0);
    for i in 0..5 {
        for planes in [i % 2 == 0, i % 2 == 1] {
            let (secs, ev) = run_slice(planes);
            if planes {
                on = on.min(secs);
                events = ev;
            } else {
                off = off.min(secs);
            }
        }
    }
    (on / off, events)
}

/// The traced run's per-layer metrics.
fn per_layer(b: &Bench, args: &Args, ref_ms: f64, planes: Option<(f64, u64)>) -> Metrics {
    // Sorted traced op ids of the workload's own kinds and of the census.
    let ops_of = |own: bool| -> Vec<u32> {
        let mut ops: Vec<u32> = b
            .runs
            .iter()
            .filter(|r| r.own == own)
            .flat_map(|r| r.traced_ops.clone())
            .collect();
        ops.sort_unstable();
        ops
    };
    let (own_ops, census_ops) = (ops_of(true), ops_of(false));
    let is_own = |op: u32| own_ops.binary_search(&op).is_ok();
    let spans = &b.tracer.spans;
    // Durations (ms) of the spans named `name`, from the workload's own ops
    // or, when those never make that call, from the census.
    let samples = |name: &str| -> Vec<f64> {
        let of = |ops: &[u32]| -> Vec<f64> {
            spans
                .iter()
                .filter(|s| s.name == name && ops.binary_search(&s.op).is_ok())
                .map(|s| s.ns() as f64 / 1e6)
                .collect()
        };
        let own = of(&own_ops);
        if own.is_empty() {
            of(&census_ops)
        } else {
            own
        }
    };
    let sum = |f: &dyn Fn(&Counts) -> u64| -> f64 {
        b.runs
            .iter()
            .filter(|r| r.own)
            .map(|r| f(&r.counts()) as f64)
            .sum()
    };
    let owned: Vec<&KindRun> = b.runs.iter().filter(|r| r.own).collect();

    let mut m: Metrics = Vec::new();
    m.push(("host.ref_ms".into(), ref_ms, "ms"));
    m.push((
        "cupc.register_ms".into(),
        median(&samples("cupc.register")),
        "ms",
    ));
    m.push(("core.boot_ms".into(), median(&samples("core.boot")), "ms"));
    let spawns = samples("core.spawn");
    m.push(("core.spawn_ms.p50".into(), quantile(&spawns, 0.5), "ms"));
    m.push(("core.spawn_ms.p90".into(), quantile(&spawns, 0.9), "ms"));
    m.push(("core.spawns".into(), sum(&|c| c.spawns), "count"));
    m.push((
        "core.spawn_ms_growth".into(),
        spawn_growth(spans, &own_ops, &census_ops),
        "x",
    ));
    m.push(("core.kill_ms".into(), median(&samples("core.kill")), "ms"));
    m.push(("core.quanta".into(), sum(&|c| c.quanta), "count"));
    m.push((
        "analyze.pass_ms".into(),
        median(&samples("analyze.pass")),
        "ms",
    ));
    let methods: u64 = owned.iter().map(|r| r.methods).sum();
    m.push((
        "analyze.methods".into(),
        methods as f64 / owned.len() as f64,
        "count",
    ));

    // Host time inside the scheduler/interpreter per guest op executed.
    let run_ns = |ops: &[u32]| -> (f64, f64) {
        let traced = |op: &&u32| ops.binary_search(op).is_ok();
        let ns = spans
            .iter()
            .filter(|s| s.name == "vm.run" && traced(&&s.op))
            .map(|s| s.ns() as f64)
            .sum();
        let guest = b
            .runs
            .iter()
            .map(|r| {
                r.traced_ops.iter().filter(traced).count() as f64 * r.counts().guest_ops as f64
            })
            .sum();
        (ns, guest)
    };
    let (ns, guest) = match run_ns(&own_ops) {
        (_, 0.0) => run_ns(&census_ops),
        own => own,
    };
    m.push(("vm.run_ns_per_op".into(), ns / guest, "ns"));
    m.push(("vm.guest_ops".into(), sum(&|c| c.guest_ops), "count"));
    let (compiles, hits) = (sum(&|c| c.jit_compiles), sum(&|c| c.jit_hits));
    m.push(("vm.jit_compiles".into(), compiles, "count"));
    m.push(("vm.jit_hits".into(), hits, "count"));
    m.push((
        "vm.jit_hit_ratio".into(),
        if compiles + hits > 0.0 {
            hits / (compiles + hits)
        } else {
            0.0
        },
        "ratio",
    ));
    let compile_ms = |own: bool| -> f64 {
        b.runs
            .iter()
            .filter(|r| r.own == own)
            .map(|r| median(&r.compile_ns) / 1e6)
            .sum()
    };
    let jit_ms = if compiles > 0.0 {
        compile_ms(true)
    } else {
        compile_ms(false)
    };
    m.push(("vm.jit_compile_ms".into(), jit_ms, "ms"));

    let (barriers, gc) = (sum(&|c| c.barriers), sum(&|c| c.gc_cycles));
    let sim_cycles: f64 = owned
        .iter()
        .map(|r| r.reference.as_ref().map_or(0.0, |o| o.sim_cycles as f64))
        .sum();
    m.push(("heap.barriers".into(), barriers, "count"));
    m.push((
        "heap.barrier_cycles".into(),
        sum(&|c| c.barrier_cycles),
        "cycles",
    ));
    m.push(("heap.gc_cycles".into(), gc, "cycles"));
    m.push(("heap.gc_share".into(), gc / sim_cycles, "ratio"));
    m.push(("memlimit.oom_kills".into(), sum(&|c| c.oom_kills), "count"));
    m.push((
        "tenant.admitted".into(),
        sum(&|c| c.tenant_admitted),
        "count",
    ));
    m.push(("tenant.queued".into(), sum(&|c| c.tenant_queued), "count"));
    m.push((
        "tenant.rejected".into(),
        sum(&|c| c.tenant_rejected),
        "count",
    ));
    m.push((
        "tenant.restarts".into(),
        sum(&|c| c.tenant_restarts),
        "count",
    ));
    m.push((
        "tenant.bytes_reaped".into(),
        sum(&|c| c.tenant_bytes_reaped),
        "bytes",
    ));

    for kind in ops::kinds("spec-mix")
        .into_iter()
        .chain(ops::kinds("slo-scenarios"))
    {
        let label = kind.label();
        let Some(r) = b.runs.iter().find(|r| r.kind.label() == label) else {
            continue;
        };
        let ms: Vec<f64> = r.times.iter().map(|s| s * 1e3).collect();
        m.push((format!("{label}.op_ms.fast"), quantile(&ms, FAST_Q), "ms"));
        m.push((format!("{label}.op_ms.p50"), median(&ms), "ms"));
    }

    let (planes_x, events) = planes.unwrap_or((0.0, 0));
    m.push(("trace.planes_x".into(), planes_x, "x"));
    m.push(("trace.events".into(), events as f64, "count"));
    let fast = |xs: &Vec<f64>| quantile(xs, FAST_Q);
    let traced: f64 = owned.iter().map(|r| fast(&r.traced)).sum();
    let untraced: f64 = owned.iter().map(|r| fast(&r.times)).sum();
    m.push(("bench.trace_overhead".into(), traced / untraced, "x"));

    // Self time per layer over the workload's traced ops, as a share of
    // their wall time; `bench` is what no layer span covers.
    let by_layer = b.tracer.layer_self_ns(&is_own);
    let wall: f64 = spans
        .iter()
        .filter(|s| s.parent.is_none() && is_own(s.op))
        .map(|s| s.ns() as f64)
        .sum();
    for layer in SPAN_LAYERS {
        let own = by_layer.get(layer).copied().unwrap_or(0) as f64;
        m.push((format!("{layer}.self_share"), own / wall, "ratio"));
    }
    println!(
        "# spans: layer self times cover {:.1}% of op wall time",
        100.0 * (1.0 - by_layer.get("bench").copied().unwrap_or(0) as f64 / wall)
    );
    write_spans(b, args);
    m
}

/// Median, over ops with at least ten spawns, of the mean spawn time of
/// the last tenth of their spawns over that of the first tenth.
fn spawn_growth(spans: &[span::Span], own: &[u32], census: &[u32]) -> f64 {
    let growth = |ops: &[u32]| -> Vec<f64> {
        let mut by_op: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
        for s in spans
            .iter()
            .filter(|s| s.name == "core.spawn" && ops.binary_search(&s.op).is_ok())
        {
            by_op.entry(s.op).or_default().push(s.ns() as f64);
        }
        by_op
            .values()
            .filter(|v| v.len() >= 10)
            .map(|v| {
                let d = v.len() / 10;
                let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
                mean(&v[v.len() - d..]) / mean(&v[..d])
            })
            .collect()
    };
    let own = growth(own);
    median(&if own.is_empty() { growth(census) } else { own })
}

/// Writes the traced run's spans next to the benchmark's sources.
fn write_spans(b: &Bench, args: &Args) {
    let mut kinds: BTreeMap<u32, String> = BTreeMap::new();
    for r in &b.runs {
        for &op in &r.traced_ops {
            kinds.insert(op, r.kind.label());
        }
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    let text = b
        .tracer
        .jsonl(&|op| kinds.get(&op).cloned().unwrap_or_else(|| "failed".into()));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text)) {
        Ok(()) => println!("# spans written to {}", path.display()),
        Err(e) => println!("# spans not written: {e}"),
    }
}
