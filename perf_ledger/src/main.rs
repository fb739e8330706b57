//! Command-line front of the performance ledger; see `README.md`.

use std::path::PathBuf;
use std::process::ExitCode;

use perf_ledger::check::violations;
use perf_ledger::harness::{check_fixture, measure, results_json, run_rep, Measurement, Plan};
use perf_ledger::workloads::{self, Mode, Workload, WORKLOADS};

const USAGE: &str = "\
perf_ledger: end-to-end + per-layer benchmark of the ElastiSim reproduction

  perf_ledger [--seed S] [--reps N] [--workload NAME] [--smoke]
              [--out FILE] [--trace-out DIR]
      Runs every workload (or NAME): 1 verification repetition, N (default
      5; 1 with --smoke) repetitions with tracing off, 1 traced repetition.
      Prints every metric by name with unit and direction; --out writes
      the results file, --trace-out the span files.

  perf_ledger --check BENCHMARK.json [--baseline FILE] [--allow-digest-change] ...
      As above, then exits non-zero on any failed simulation, any
      end-to-end metric outside its bound against the baseline results
      file (default perf_ledger/baseline.json), or any changed exact
      count or sim_digest.

  perf_ledger --workload NAME --seed S --seconds T --trace 0|1
      One run of the benchmark contract: measures NAME for T seconds and
      prints the result object as the last line. --trace 0 gives the
      end-to-end metrics, --trace 1 the per-layer metrics.
";

const DEFAULT_SEED: u64 = 3;

#[derive(Default)]
struct Options {
    seed: Option<u64>,
    reps: Option<usize>,
    workload: Option<String>,
    smoke: bool,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    check: Option<PathBuf>,
    baseline: Option<PathBuf>,
    allow_digest_change: bool,
    seconds: Option<f64>,
    trace: Option<bool>,
    child: bool,
    mode: Option<Mode>,
}

impl Options {
    fn seed(&self) -> u64 {
        self.seed.unwrap_or(DEFAULT_SEED)
    }
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("option `{flag}` needs a value"))
        };
        fn num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
            v.parse()
                .map_err(|_| format!("option `{flag}`: bad value `{v}`"))
        }
        match flag.as_str() {
            "--seed" => o.seed = Some(num(flag, value()?)?),
            "--reps" => o.reps = Some(num(flag, value()?)?),
            "--workload" => o.workload = Some(value()?.clone()),
            "--smoke" => o.smoke = true,
            "--out" => o.out = Some(value()?.into()),
            "--trace-out" => o.trace_out = Some(value()?.into()),
            "--check" => o.check = Some(value()?.into()),
            "--baseline" => o.baseline = Some(value()?.into()),
            "--allow-digest-change" => o.allow_digest_change = true,
            "--seconds" => o.seconds = Some(num(flag, value()?)?),
            "--trace" => o.trace = Some(num::<u8>(flag, value()?)? != 0),
            "--child" => o.child = true,
            "--mode" => {
                let v = value()?;
                o.mode = Some(Mode::parse(v).ok_or_else(|| format!("bad mode `{v}`"))?);
            }
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown option `{other}`\n\n{USAGE}")),
        }
    }
    Ok(o)
}

fn selected(o: &Options) -> Result<Vec<&'static Workload>, String> {
    match &o.workload {
        None => Ok(WORKLOADS.iter().collect()),
        Some(name) => workloads::by_name(name).map(|w| vec![w]).ok_or_else(|| {
            let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload `{name}` (known: {})", known.join(", "))
        }),
    }
}

/// One repetition in this process; prints its one line of JSON.
fn child(o: &Options) -> Result<(), String> {
    let workload = selected(o)?[0];
    let mode = o.mode.unwrap_or(Mode::Timed);
    let (_, result) = run_rep(workload, o.seed(), o.smoke, mode, o.trace_out.as_deref())?;
    println!("{}", result.to_json());
    Ok(())
}

/// One run of the benchmark contract.
fn contract_run(o: &Options, trace: bool) -> Result<bool, String> {
    let workload = selected(o)?[0];
    let plan = Plan {
        verify: trace,
        timed_reps: if trace { 1 } else { 3 },
        traced_reps: trace as usize,
        seconds: o.seconds,
    };
    let m = measure(workload, o.seed(), o.smoke, plan, o.trace_out.as_deref());
    print!("{}", m.render());
    let metrics = if trace { &m.per_layer } else { &m.end_to_end };
    println!("{}", m.result_json(metrics));
    Ok(m.correct())
}

/// Every workload, every metric; optionally checked against a baseline.
fn full_run(o: &Options) -> Result<bool, String> {
    let seed = o.seed();
    let plan = Plan {
        verify: true,
        timed_reps: o.reps.unwrap_or(if o.smoke { 1 } else { 5 }).max(1),
        traced_reps: 1,
        seconds: None,
    };
    let mut measurements: Vec<Measurement> = Vec::new();
    for workload in selected(o)? {
        let m = measure(workload, seed, o.smoke, plan, o.trace_out.as_deref());
        print!("{}", m.render());
        measurements.push(m);
    }
    let results = results_json(seed, o.smoke, &measurements);
    if let Some(path) = &o.out {
        std::fs::write(path, &results).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let mut ok = measurements.iter().all(Measurement::correct);
    if let Some(benchmark) = &o.check {
        let read =
            |p: &PathBuf| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
        let baseline = o
            .baseline
            .clone()
            .unwrap_or_else(|| "perf_ledger/baseline.json".into());
        let found = violations(
            &read(benchmark)?,
            &read(&baseline)?,
            seed,
            o.smoke,
            &measurements,
            o.allow_digest_change,
        )?;
        for v in &found {
            println!("CHECK FAILED: {v}");
        }
        if found.is_empty() {
            println!("check against {}: ok", baseline.display());
        }
        ok &= found.is_empty();
    }
    println!("{results}");
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse(&args).and_then(|o| {
        check_fixture()?;
        if o.child {
            child(&o).map(|()| true)
        } else if let Some(trace) = o.trace {
            contract_run(&o, trace)
        } else {
            full_run(&o)
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
