//! Benchmark helper binary: generates the workload inputs and runs the
//! traced operations.
//!
//! ```text
//! perfbench gen sel4|capdl table5|audit SEED OUT.c
//! perfbench workers FILE.c                  granted workers at CLI defaults
//! perfbench scratch FILE.c                  layer chain from source, uncached replay
//! perfbench session FILE.c CACHE_DIR OUT.cert
//!                                           the CLI's cached path, one call per span
//! perfbench store CACHE_DIR EMPTY_DIR       DiskStore::load_into, then save elsewhere
//! perfbench certcheck FILE.cert             kernel::cert::check_cert
//! ```
//!
//! Every traced subcommand runs in a fresh process (the interner and the
//! caches are process-global), calls each layer's public function from
//! here, records one span per call, and prints one JSON object on stdout:
//! `{"spans": [[name, start_s, end_s], ...], "counts": {name: number}}`.
//! Nothing inside the program is instrumented; `run.py` aggregates.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use autocorres::{ArtifactStore, DiskStore, Options, Session, PHASES};
use kernel::{CheckCtx, ReplayCache, Rule, Thm};
use monadic::ProgramCtx;

/// The options `autocorres FILE.c` runs with when no flag is given.
const CLI_TRIALS: u32 = 60;
const CLI_SEED: u64 = 2014;
const CLI_WORKERS: usize = 0;

fn cli_options(cache_dir: Option<&Path>) -> Options {
    Options {
        l2_trials: CLI_TRIALS,
        seed: CLI_SEED,
        workers: CLI_WORKERS,
        cache_dir: cache_dir.map(Path::to_path_buf),
        ..Options::default()
    }
}

/// In-memory spans and counts of one traced process.
struct Trace {
    epoch: Instant,
    spans: Vec<(&'static str, f64, f64)>,
    counts: BTreeMap<String, f64>,
}

impl Trace {
    fn new() -> Trace {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Runs `f` inside a span named `name`.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.epoch.elapsed().as_secs_f64();
        let out = std::hint::black_box(f());
        let end = self.epoch.elapsed().as_secs_f64();
        self.spans.push((name, start, end));
        out
    }

    fn count(&mut self, name: &str, value: f64) {
        self.counts.insert(name.to_owned(), value);
    }

    fn print(&self) {
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|(n, s, e)| format!("[\"{n}\", {s:.9}, {e:.9}]"))
            .collect();
        let counts: Vec<String> = self
            .counts
            .iter()
            .map(|(n, v)| format!("\"{n}\": {v}"))
            .collect();
        println!(
            "{{\"spans\": [{}], \"counts\": {{{}}}}}",
            spans.join(", "),
            counts.join(", ")
        );
    }
}

fn thm_stats(thms: &[(String, Thm)]) -> (usize, usize) {
    (thms.len(), thms.iter().map(|(_, t)| t.proof_size()).sum())
}

/// Oracle leaves (`ExecTested`, `WCustomSampled`) in the logical proof
/// trees, counted with multiplicity like `Thm::proof_size`.
fn oracle_leaves<'a>(thms: impl Iterator<Item = &'a Thm>) -> usize {
    let mut stack: Vec<&Thm> = thms.collect();
    let mut n = 0;
    while let Some(t) = stack.pop() {
        if matches!(t.rule(), Rule::ExecTested | Rule::WCustomSampled) {
            n += 1;
        }
        stack.extend(t.premises());
    }
    n
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

fn gen(profile: &str, mix: &str, seed: &str, out: &str) -> Result<(), String> {
    let profile = match profile {
        "sel4" => &codegen::TABLE5[0],
        "capdl" => &codegen::TABLE5[1],
        p => return Err(format!("unknown profile `{p}`")),
    };
    let seed: u64 = seed.parse().map_err(|e| format!("seed: {e}"))?;
    let src = match mix {
        "table5" => codegen::generate(profile, seed),
        "audit" => codegen::generate_mix(profile, &codegen::Mix::audit(), seed),
        m => return Err(format!("unknown mix `{m}`")),
    };
    std::fs::write(out, src).map_err(|e| format!("{out}: {e}"))
}

/// The translation chain from source, one public layer call per span,
/// followed by an uncached replay of every refinement theorem and the
/// teardown of everything built.
fn scratch(file: &str) -> Result<Trace, String> {
    let src = read(file)?;
    let mut tr = Trace::new();
    let typed = tr
        .span("cparser.parse", || cparser::parse_and_check(&src))
        .map_err(|d| d.to_string())?;
    let sp = tr
        .span("simpl.translate", || simpl::translate_program(&typed))
        .map_err(|d| d.to_string())?;
    let cx = CheckCtx {
        tenv: sp.tenv.clone(),
        ..CheckCtx::default()
    };
    let (l1ctx, l1_thms) = tr
        .span("l1", || autocorres::l1::l1_program(&cx, &sp))
        .map_err(|e| e.to_string())?;

    let mut l2ctx = ProgramCtx {
        tenv: sp.tenv.clone(),
        globals: sp.globals.clone(),
        ..ProgramCtx::default()
    };
    for f in &typed.functions {
        let fun = tr
            .span("l2.translate", || autocorres::l2::l2_function(&typed, f))
            .map_err(|d| d.to_string())?;
        l2ctx.fns.insert(f.name.clone(), fun);
    }
    let heap_types = tr.span("l2.evidence", || {
        autocorres::testing::heap_types_of(&l1ctx.tenv, &l1ctx)
    });
    let mut l2_thms = Vec::new();
    for f in &typed.functions {
        let thm = tr
            .span("l2.evidence", || {
                autocorres::l2::l2_fn_theorem(
                    &cx,
                    &l2ctx,
                    &l1ctx,
                    &heap_types,
                    &f.name,
                    CLI_TRIALS,
                    CLI_SEED,
                )
            })
            .map_err(|d| d.to_string())?;
        l2_thms.push((f.name.clone(), thm));
    }

    let hl_opts = heapabs::HlOptions {
        concrete_fns: Default::default(),
    };
    let (hlctx, hl_thms) = tr
        .span("heapabs", || heapabs::hl_program(&cx, &l2ctx, &hl_opts))
        .map_err(|e| e.to_string())?;
    let wa_opts = wordabs::WaOptions {
        abstract_fns: None,
        custom_rules: Vec::new(),
        custom_trials: 1000,
    };
    let (wactx, wa_thms, check_ctx) = tr
        .span("wordabs", || wordabs::wa_program(&cx, &hlctx, &wa_opts))
        .map_err(|e| e.to_string())?;

    let mut guards = 0usize;
    let mut discharged = 0usize;
    let mut absint_thms: Vec<Thm> = Vec::new();
    for (name, fun) in &wactx.fns {
        let tf = typed
            .function(name)
            .ok_or_else(|| format!("no typed function `{name}`"))?;
        let (report, _lints) = tr.span("absint", || {
            (absint::analyze_fn(fun, &sp.tenv), absint::lint_fn(tf))
        });
        guards += report.guards.len();
        discharged += report.discharged();
        for g in &report.guards {
            if let absint::Verdict::ProvedTrue { hyp } = &g.verdict {
                let thm = tr
                    .span("absint", || {
                        kernel::rules::refine::absint_discharge(
                            &check_ctx,
                            hyp,
                            g.kind.clone(),
                            &g.guard,
                        )
                    })
                    .map_err(|e| format!("{name}: {e}"))?;
                absint_thms.push(thm);
            }
        }
    }
    let dedup = ir::intern::expr_stats().dedup_ratio();

    let all: Vec<(&str, &Thm)> = [&l1_thms, &l2_thms, &hl_thms, &wa_thms]
        .into_iter()
        .flatten()
        .map(|(n, t)| (n.as_str(), t))
        .collect();
    let replay = tr
        .span("kernel.replay", || {
            kernel::check_all_with(all.iter().copied(), &check_ctx, 1, &ReplayCache::new())
        })
        .map_err(|(f, e)| format!("replay {f}: {e}"))?;

    for (phase, thms) in [
        ("l1", &l1_thms),
        ("l2", &l2_thms),
        ("hl", &hl_thms),
        ("wa", &wa_thms),
    ] {
        let (n, nodes) = thm_stats(thms);
        tr.count(&format!("xc.{phase}.thms"), n as f64);
        tr.count(&format!("xc.{phase}.proof_nodes"), nodes as f64);
    }
    tr.count("xc.absint.thms", absint_thms.len() as f64);
    tr.count(
        "xc.absint.proof_nodes",
        absint_thms.iter().map(Thm::proof_size).sum::<usize>() as f64,
    );
    let leaves = oracle_leaves(all.iter().map(|(_, t)| *t).chain(&absint_thms));
    tr.count("l2.oracle_leaves", leaves as f64);
    tr.count("absint.guards", guards as f64);
    tr.count("absint.discharged", discharged as f64);
    tr.count("intern.dedup_ratio", dedup);
    tr.count("replay.nodes", replay.proof_nodes as f64);
    tr.count("replay.hits", replay.cache_hits as f64);
    tr.count("replay.misses", replay.cache_misses as f64);

    drop(all);
    tr.span("teardown", move || {
        drop((typed, sp, l1ctx, l2ctx, hlctx, wactx, check_ctx));
        drop((l1_thms, l2_thms, hl_thms, wa_thms, absint_thms));
    });
    Ok(tr)
}

/// The CLI's `--cache-dir --check --emit-cert` path through a `Session`,
/// one span per public call, with the pipeline's own phase counts for the
/// traced-vs-real cross-check.
fn session(file: &str, cache_dir: &str, cert: &str) -> Result<Trace, String> {
    let src = read(file)?;
    let mut tr = Trace::new();
    let sess = tr.span("session.open", || {
        Session::new(cli_options(Some(Path::new(cache_dir))))
    });
    let out = tr
        .span("session.translate", || sess.translate(&src))
        .map_err(|d| d.to_string())?;
    let bytes = tr.span("cert.encode", || {
        let mut labels: Vec<(String, &Thm)> = out
            .thms
            .iter()
            .map(|(phase, name, thm)| (format!("{phase}:{name}"), thm))
            .collect();
        for (name, a) in &out.absint {
            for (idx, thm) in &a.thms {
                labels.push((format!("absint:{name}:{idx}"), thm));
            }
        }
        let roots: Vec<(&str, &Thm)> = labels.iter().map(|(l, t)| (l.as_str(), *t)).collect();
        kernel::cert::encode_cert(&out.check_ctx, &roots)
    });
    std::fs::write(cert, &bytes).map_err(|e| format!("{cert}: {e}"))?;
    let replay = tr
        .span("kernel.replay", || {
            sess.check_all_report(&out, out.stats.workers)
        })
        .map_err(|(f, e)| format!("replay {f}: {e}"))?;

    let stats = &out.stats;
    for p in &stats.phases {
        tr.count(&format!("xc.{}.thms", p.name), p.thms as f64);
        tr.count(&format!("xc.{}.proof_nodes", p.name), p.proof_nodes as f64);
    }
    tr.count("workers", stats.workers as f64);
    tr.count("dirty_fns", stats.dirty_fns as f64);
    tr.count("cached_nodes", stats.cached_nodes as f64);
    tr.count("phase_jobs", (out.wa.fns.len() * PHASES.len()) as f64);
    tr.count("cert.bytes", bytes.len() as f64);
    tr.count("replay.nodes", replay.proof_nodes as f64);
    tr.count("replay.hits", replay.cache_hits as f64);
    tr.count("replay.misses", replay.cache_misses as f64);
    tr.span("teardown", move || drop((out, sess)));
    Ok(tr)
}

/// `DiskStore::load_into` from `cache_dir` into fresh caches, then
/// `DiskStore::save` of everything loaded into the empty `save_dir`.
fn store(cache_dir: &str, save_dir: &str) -> Result<Trace, String> {
    let mut tr = Trace::new();
    let disk = DiskStore::open(Path::new(cache_dir)).map_err(|e| format!("{cache_dir}: {e}"))?;
    let (arts, replay) = (ArtifactStore::new(), ReplayCache::new());
    let rep = tr.span("store.load", || disk.load_into(&arts, &replay));
    let target = DiskStore::open(Path::new(save_dir)).map_err(|e| format!("{save_dir}: {e}"))?;
    tr.span("store.save", || target.save(&arts, &replay))
        .map_err(|e| format!("{save_dir}: {e}"))?;
    tr.count("store.files", rep.artifacts as f64);
    tr.count("store.rejected", rep.rejected as f64);
    tr.span("teardown", move || drop((arts, replay)));
    Ok(tr)
}

/// The worker count the pipeline grants at CLI defaults
/// (`PipelineStats::workers`), from an uncached translation of `file`.
fn workers(file: &str) -> Result<(), String> {
    let out = Session::new(cli_options(None))
        .translate(&read(file)?)
        .map_err(|d| d.to_string())?;
    println!(
        "{{\"workers\": {}, \"requested\": {}}}",
        out.stats.workers, out.stats.requested_workers
    );
    Ok(())
}

fn certcheck(file: &str) -> Result<Trace, String> {
    let bytes = std::fs::read(file).map_err(|e| format!("{file}: {e}"))?;
    let mut tr = Trace::new();
    let report = tr
        .span("cert.check", || kernel::cert::check_cert(&bytes))
        .map_err(|e| format!("{file}: {e}"))?;
    tr.count("cert.nodes", report.nodes as f64);
    tr.span("teardown", move || drop(report));
    Ok(tr)
}

fn run(args: &[String]) -> Result<(), String> {
    let a: Vec<&str> = args.iter().map(String::as_str).collect();
    let trace = match a.as_slice() {
        ["gen", profile, mix, seed, out] => return gen(profile, mix, seed, out),
        ["workers", file] => return workers(file),
        ["scratch", file] => scratch(file)?,
        ["session", file, cache_dir, cert] => session(file, cache_dir, cert)?,
        ["store", cache_dir, save_dir] => store(cache_dir, save_dir)?,
        ["certcheck", file] => certcheck(file)?,
        _ => return Err("usage: see the module docs of perfbench/src/main.rs".into()),
    };
    trace.print();
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::FAILURE
        }
    }
}
