//! The op kinds of the three workloads. One op is one fresh kernel doing
//! one job, driven through the same public calls the library harnesses
//! make, with a span around every call into a layer.

use kaffeos::{ExitStatus, KaffeOs, KaffeOsConfig, Pid};
use kaffeos_heap::costs::cycles_to_seconds;
use kaffeos_workloads::servlet::{MEMHOG_SOURCE, SERVLET_SOURCE};
use kaffeos_workloads::{
    all_benchmarks, platforms, run_scenario, run_servlet_experiment, Deployment, ServletParams,
    SpecBenchmark, SCENARIOS,
};

use crate::span::Tracer;

/// Servlet counts of Figure 4's sweep that the servlet workload cycles
/// through: the middle of the sweep, around its default of 20. Every run
/// covers all three, so the rate does not depend on which the seed drew.
pub const SERVLET_SWEEP: [usize; 3] = [10, 20, 30];

/// Deadline step of `run_kaffeos`'s crash-polling loop.
const CHUNK_CYCLES: u64 = 20_000_000;
/// Per-servlet heap and memlimit of `run_kaffeos`.
const SERVLET_HEAP: u64 = 8 << 20;

/// One kind of op.
#[derive(Clone, Copy)]
pub enum Kind {
    /// A Figure 3 guest at [`spec_n`] on "KaffeOS, Heap Pointer".
    Spec(SpecBenchmark),
    /// A Figure 4 KaffeOS deployment of this many servlets plus a MemHog.
    Servlet(usize),
    /// A golden SLO scenario.
    Slo(&'static str),
}

impl Kind {
    pub fn label(&self) -> String {
        match self {
            Kind::Spec(b) => format!("spec.{}", b.name),
            Kind::Servlet(n) => format!("fig4.n{n}"),
            Kind::Slo(s) => format!("slo.{s}"),
        }
    }
}

/// Iterations of a spec-mix job: a quarter of the Figure 3 size, so that
/// one round of all seven jobs takes well under a second and a run sees
/// every kind many times.
pub fn spec_n(b: &SpecBenchmark) -> i64 {
    (b.default_n / 4).max(1)
}

/// The workloads, by command-line name.
pub const WORKLOADS: [&str; 3] = ["spec-mix", "servlet-memhog", "slo-scenarios"];

/// The op kinds of a workload, in a fixed order.
pub fn kinds(workload: &str) -> Vec<Kind> {
    match workload {
        "spec-mix" => all_benchmarks().into_iter().map(Kind::Spec).collect(),
        "servlet-memhog" => SERVLET_SWEEP.into_iter().map(Kind::Servlet).collect(),
        "slo-scenarios" => SCENARIOS.iter().map(|&s| Kind::Slo(s)).collect(),
        _ => Vec::new(),
    }
}

/// Simulated counts of one op. All of them are pure functions of the op's
/// inputs except `jit_compile_ns`, which is host time.
#[derive(Clone, Copy, Default)]
pub struct Counts {
    pub guest_ops: u64,
    pub barriers: u64,
    pub barrier_cycles: u64,
    pub gc_cycles: u64,
    pub spawns: u64,
    pub quanta: u64,
    pub oom_kills: u64,
    pub jit_compiles: u64,
    pub jit_hits: u64,
    pub jit_compile_ns: u64,
    pub tenant_admitted: u64,
    pub tenant_queued: u64,
    pub tenant_rejected: u64,
    pub tenant_restarts: u64,
    pub tenant_bytes_reaped: u64,
    /// Methods the traced analysis pass walked (0 untraced).
    pub methods: u64,
}

/// What one op produced.
pub struct OpOut {
    /// Every simulated output of the op, rendered; repeats of one kind
    /// must agree on it byte for byte.
    pub check: String,
    /// Simulated time the op modelled, in cycles.
    pub sim_cycles: u64,
    /// Units served: guest jobs, answered servlet requests, or completed
    /// tenant requests.
    pub units: u64,
    pub counts: Counts,
}

/// Runs one op of `kind`; `seed` feeds the SLO scenario. `Err` is an op
/// whose output check failed.
pub fn run(kind: Kind, seed: u64, tr: &mut Tracer) -> Result<OpOut, String> {
    let root = tr.begin("bench.op");
    let out = match kind {
        Kind::Spec(b) => spec_op(&b, tr),
        Kind::Servlet(n) => servlet_op(n, tr),
        Kind::Slo(name) => slo_op(name, seed, tr),
    };
    tr.end(root);
    out
}

/// `run_spec` on "KaffeOS, Heap Pointer", one call at a time.
fn spec_op(b: &SpecBenchmark, tr: &mut Tracer) -> Result<OpOut, String> {
    let config = platforms()[4].config();
    let mut os = tr.span("core.boot", || KaffeOs::new(config));
    tr.span("cupc.register", || os.register_image(b.name, b.source))
        .map_err(|e| format!("{} does not compile: {e}", b.name))?;
    let n = spec_n(b).to_string();
    let pid = tr
        .span("core.spawn", || os.spawn(b.name, &n, None))
        .map_err(|e| format!("{} does not spawn: {e}", b.name))?;
    let report = tr.span("vm.run", || os.run(None));
    let checksum = match os.status(pid) {
        Some(ExitStatus::Exited(v)) if v >= 0 => v,
        other => return Err(format!("{} ended with {other:?}", b.name)),
    };
    let methods = analyze_pass(&os, tr);
    let cache = os.jit_cache_stats();
    let counts = Counts {
        guest_ops: os.ops_executed(),
        barriers: report.barrier.executed,
        barrier_cycles: report.barrier.cycles,
        gc_cycles: os.cpu(pid).gc,
        methods,
        spawns: 1,
        quanta: report.quanta,
        jit_compiles: cache.compiles,
        jit_hits: cache.hits,
        jit_compile_ns: cache.compile_nanos,
        ..Counts::default()
    };
    Ok(OpOut {
        check: format!(
            "checksum={checksum} clock={} ops={} barriers={} barrier_cycles={} gc={}",
            report.clock,
            counts.guest_ops,
            counts.barriers,
            counts.barrier_cycles,
            counts.gc_cycles
        ),
        sim_cycles: report.clock,
        units: 1,
        counts,
    })
}

/// `run_kaffeos` (Figure 4, KaffeOS deployment under MemHog attack), one
/// call at a time.
fn servlet_op(servlets: usize, tr: &mut Tracer) -> Result<OpOut, String> {
    let params = ServletParams::figure4(Deployment::KaffeOsProcs, servlets, true);
    let config = KaffeOsConfig {
        default_process_limit: SERVLET_HEAP,
        user_budget: params.machine.ram_bytes,
        ..KaffeOsConfig::default()
    };
    let mut os = tr.span("core.boot", || KaffeOs::new(config));
    for (image, source) in [("servlet", SERVLET_SOURCE), ("memhog", MEMHOG_SOURCE)] {
        tr.span("cupc.register", || os.register_image(image, source))
            .map_err(|e| format!("{image} does not compile: {e}"))?;
    }
    let spawn = |os: &mut KaffeOs, tr: &mut Tracer, image: &str, args: String| {
        tr.span("core.spawn", || os.spawn(image, &args, Some(SERVLET_HEAP)))
            .map_err(|e| format!("{image} does not spawn: {e}"))
    };
    let total = params.total_requests;
    let (base, extra) = (total / servlets as u64, total % servlets as u64);
    let mut pids: Vec<Pid> = Vec::with_capacity(servlets);
    for i in 0..servlets as u64 {
        let share = base + u64::from(i < extra);
        pids.push(spawn(&mut os, tr, "servlet", share.to_string())?);
    }
    let mut hog = spawn(&mut os, tr, "memhog", String::new())?;
    let mut restarts = 0u64;
    let mut spawns = servlets as u64 + 1;
    let report = loop {
        let deadline = os.clock() + CHUNK_CYCLES;
        let report = tr.span("vm.run", || os.run(Some(deadline)));
        if !os.is_alive(hog) {
            hog = spawn(&mut os, tr, "memhog", String::new())?;
            restarts += 1;
            spawns += 1;
        }
        if pids.iter().all(|&pid| !os.is_alive(pid)) {
            break report;
        }
    };
    tr.span("core.kill", || os.kill(hog))
        .map_err(|e| format!("memhog kill failed: {e}"))?;
    let served: u64 = pids
        .iter()
        .map(|&pid| os.stdout(pid).iter().filter(|l| *l == "r").count() as u64)
        .sum();
    if served != total {
        return Err(format!(
            "{servlets} servlets served {served} of {total} requests"
        ));
    }
    let methods = analyze_pass(&os, tr);
    let cache = os.jit_cache_stats();
    let counts = Counts {
        guest_ops: os.ops_executed(),
        barriers: report.barrier.executed,
        barrier_cycles: report.barrier.cycles,
        methods,
        gc_cycles: report.processes.iter().map(|p| p.cpu.gc).sum(),
        spawns,
        quanta: report.quanta,
        oom_kills: restarts,
        jit_compiles: cache.compiles,
        jit_hits: cache.hits,
        jit_compile_ns: cache.compile_nanos,
        ..Counts::default()
    };
    let virtual_seconds = cycles_to_seconds(os.clock() + params.machine.vm_startup_cycles);
    Ok(OpOut {
        check: servlet_check(virtual_seconds, restarts, served),
        sim_cycles: os.clock(),
        units: served,
        counts,
    })
}

fn servlet_check(virtual_seconds: f64, memhog_restarts: u64, served: u64) -> String {
    format!("virtual_seconds={virtual_seconds:?} memhog_restarts={memhog_restarts} served={served}")
}

/// The library harness's outcome for a servlet op, rendered like
/// [`OpOut::check`]; `None` for other kinds.
pub fn library_check(kind: Kind) -> Option<String> {
    let Kind::Servlet(n) = kind else { return None };
    let o = run_servlet_experiment(ServletParams::figure4(Deployment::KaffeOsProcs, n, true));
    Some(servlet_check(
        o.virtual_seconds,
        u64::from(o.memhog_restarts),
        o.requests_served,
    ))
}

/// One golden SLO scenario through `run_scenario`, which owns its kernel;
/// the whole op is one `workloads` span.
fn slo_op(name: &'static str, seed: u64, tr: &mut Tracer) -> Result<OpOut, String> {
    let report = tr
        .span("workloads.scenario", || run_scenario(name, seed))
        .ok_or_else(|| format!("unknown scenario {name}"))?;
    let clock = report
        .text
        .lines()
        .find_map(|l| l.split_once(" clock=").map(|(_, c)| c.parse::<u64>()))
        .and_then(Result::ok)
        .ok_or_else(|| format!("{name} report has no clock"))?;
    let mut counts = Counts::default();
    let mut units = 0;
    for t in &report.tenants {
        let s = &t.stats;
        units += t.completed;
        counts.tenant_admitted += s.admitted;
        counts.tenant_queued += s.queued;
        counts.tenant_rejected += s.rejected_cap + s.rejected_breaker + s.rejected_shed;
        counts.tenant_restarts += s.restarts;
        counts.tenant_bytes_reaped += s.heap_bytes_reaped;
        counts.oom_kills += s.exits.get(kaffeos::ExitCause::Oom);
    }
    Ok(OpOut {
        check: report.text,
        sim_cycles: clock,
        units,
        counts,
    })
}

/// One direct run of the whole-program analysis over everything the op
/// loaded, traced only: it measures what each spawn's republish costs.
/// Returns the number of methods it walked.
fn analyze_pass(os: &KaffeOs, tr: &mut Tracer) -> u64 {
    if !tr.on() {
        return 0;
    }
    let table = os.class_table();
    std::hint::black_box(tr.span("analyze.pass", || kaffeos_analyze::analyze(table)));
    table.methods.len() as u64
}
