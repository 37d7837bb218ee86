//! The proof checker as an independent gate: every theorem of every case
//! study replays; derivations carry real content (sizes); and the kernel
//! rejects malformed rule applications.

use autocorres::{translate, Options, Output};
use kernel::{check, CheckCtx};

const CASE_STUDIES: &[(&str, &str)] = &[
    ("max", casestudies::sources::MAX),
    ("gcd", casestudies::sources::GCD),
    ("midpoint", casestudies::sources::MIDPOINT),
    ("swap", casestudies::sources::SWAP),
    ("suzuki", casestudies::sources::SUZUKI),
    ("reverse", casestudies::sources::REVERSE),
    ("schorr_waite", casestudies::sources::SCHORR_WAITE),
    ("overflow_idiom", casestudies::sources::OVERFLOW_IDIOM),
];

/// Replays every theorem in all four `PhaseTheorems` maps individually —
/// not via `Output::check_all` — so a theorem skipped by an aggregation bug
/// would still be caught here.
fn replay_every_map(name: &str, out: &Output) -> usize {
    let maps = [
        ("l1", &out.thms.l1),
        ("l2", &out.thms.l2),
        ("hl", &out.thms.hl),
        ("wa", &out.thms.wa),
    ];
    let mut replayed = 0;
    for (phase, thms) in maps {
        for (fn_name, thm) in thms.iter() {
            check(thm, &out.check_ctx)
                .unwrap_or_else(|e| panic!("{name}: {phase} theorem of {fn_name}: {e}"));
            replayed += 1;
        }
    }
    assert_eq!(
        replayed,
        out.thms.len(),
        "{name}: PhaseTheorems::len disagrees with the four maps"
    );
    assert_eq!(
        replayed,
        out.thms.iter().count(),
        "{name}: PhaseTheorems::iter misses theorems"
    );
    replayed
}

#[test]
fn all_case_study_theorems_replay() {
    for (name, src) in CASE_STUDIES {
        let out = translate(src, &Options::default())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        out.check_all().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            out.total_proof_size() >= 10,
            "{name}: derivations must be non-trivial"
        );
    }
}

#[test]
fn every_theorem_in_every_map_replays_individually() {
    for (name, src) in CASE_STUDIES {
        let out = translate(src, &Options::default())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let replayed = replay_every_map(name, &out);
        assert!(replayed > 0, "{name}: no theorems at all");
    }
}

#[test]
fn parallel_replay_covers_every_theorem() {
    let opts = Options {
        workers: 4,
        ..Options::default()
    };
    let out = translate(casestudies::sources::REVERSE, &opts).unwrap();
    let report = out.check_all_report(4).unwrap();
    assert_eq!(report.checked, out.thms.len());
    assert_eq!(report.proof_nodes, out.total_proof_size());
    assert!(report.pool.workers >= 1 && report.pool.workers <= 4);
    // And the sequential replay agrees.
    let seq = out.check_all_report(1).unwrap();
    assert_eq!(seq.checked, report.checked);
    assert_eq!(seq.proof_nodes, report.proof_nodes);
}

#[test]
fn parallel_replay_reports_first_error_in_theorem_order() {
    // Theorems can't be forged from outside the kernel (LCF), so induce
    // failures by replaying layout-dependent derivations against a context
    // without the struct layouts. Whatever fails first sequentially must be
    // the reported error at every worker count. The program (the eChronos
    // Table 5 profile) carries enough proof nodes that the replay planner
    // really runs the pool on a multi-CPU host.
    let src = codegen::generate(&codegen::TABLE5[3], 0xAC);
    let opts = Options {
        l2_trials: 2,
        ..Options::default()
    };
    let out = translate(&src, &opts).unwrap();
    let empty_cx = CheckCtx::default();
    let items: Vec<(&str, &kernel::Thm)> = out.thms.iter().map(|(_, n, t)| (n, t)).collect();
    let first_failing = items
        .iter()
        .find(|(_, t)| check(t, &empty_cx).is_err())
        .map(|(n, _)| (*n).to_owned())
        .expect("some derivation must depend on the layouts");
    for workers in [1usize, 2, 8] {
        let report = kernel::check_all(items.iter().copied(), &out.check_ctx, workers)
            .expect("replay with the layouts succeeds");
        if workers >= 2 && ir::sched::host_cpus() >= 2 {
            assert!(
                report.pool.workers >= 2,
                "workers={workers}: replay of {} proof nodes ran inline",
                report.proof_nodes
            );
        }
        let err = kernel::check_all(items.iter().copied(), &empty_cx, workers)
            .expect_err("replay without layouts must fail");
        assert_eq!(
            err.0, first_failing,
            "workers={workers}: error is not the first in theorem order"
        );
    }
}

#[test]
fn checker_is_independent_of_the_engines() {
    // The checker validates against a *fresh* context reconstructed from
    // the output (not the engine's internal state).
    let out = translate(casestudies::sources::REVERSE, &Options::default()).unwrap();
    let cx = out.check_ctx.clone();
    for (_, t) in out.thms.hl.iter().chain(&out.thms.wa) {
        check(t, &cx).unwrap();
    }
    // A context with the wrong layouts makes layout-dependent derivations
    // fail — the checker really consults the side conditions.
    let empty_cx = CheckCtx::default();
    let uses_layout = out
        .thms
        .hl
        .iter()
        .any(|(_, t)| check(t, &empty_cx).is_err());
    assert!(
        uses_layout,
        "field-offset rules must fail without the struct layouts"
    );
}

#[test]
fn kernel_rejects_malformed_applications() {
    use ir::expr::Expr;
    use kernel::rules::{refine, word};
    use kernel::AbsFun;
    let cx = CheckCtx::default();

    // Transitivity with non-chaining middles.
    let a = refine::refines_refl(&cx, &monadic::Prog::ret(Expr::u32(1))).unwrap();
    let b = refine::refines_refl(&cx, &monadic::Prog::ret(Expr::u32(2))).unwrap();
    assert!(refine::refines_trans(&cx, a, b).is_err());

    // Arithmetic across mismatched abstraction functions.
    let ctx: kernel::judgment::VarCtx =
        [("x".to_owned(), AbsFun::Unat), ("y".to_owned(), AbsFun::Sint)].into();
    let x = word::w_var(&cx, &ctx, "x").unwrap();
    let y = word::w_var(&cx, &ctx, "y").unwrap();
    assert!(word::w_arith(&cx, kernel::Rule::WSum, ir::Width::W32, x, y).is_err());

    // Guard discharge on an unprovable guard.
    let g = monadic::Prog::Guard(
        ir::GuardKind::DivByZero,
        Expr::binop(ir::BinOp::Ne, Expr::var("b"), Expr::u32(0)),
    );
    assert!(refine::discharge_guard(&cx, &g).is_err());
}
