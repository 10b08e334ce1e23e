//! API-surface and equivalence tests for the rebuilt construction API:
//! the `TmSystem` builder must exactly reproduce `TmSystem::new`, and the
//! fallible conversions must reject what the old `from_u8` silently clamped.

use std::sync::Arc;
use tle_core::{AlgoMode, ElidableMutex, InvalidAlgoMode, TmSystem, TxHints, ALL_MODES};

/// The serial gate's surface after the presence handshake: transactions
/// only *read* it (`closed`, the two waits), everything that writes it is a
/// serial entry, and every serial entry takes a presence probe and hands its
/// token out only once the probe has answered "nobody present". The
/// concurrent-side entries and their token are gone.
#[test]
fn gate_surface_is_the_serial_side_plus_reads() {
    use tle_base::gate::{Gate, SerialRequest};
    let _closed: fn(&Gate) -> bool = Gate::closed;
    let _wait_open: fn(&Gate) = Gate::wait_open;
    let _serial_held: fn(&Gate) -> bool = Gate::serial_held;
    let _request: for<'g> fn(&'g Gate) -> SerialRequest<'g> = Gate::request_serial;

    let sys = TmSystem::new(AlgoMode::StmCondvar);
    let gate = &sys.gate;
    assert!(!gate.closed() && !gate.serial_held());
    let mut probes = 0;
    let mut req = gate.request_serial();
    assert!(gate.closed(), "a pending request closes the gate");
    let busy = req.try_acquire(|| {
        probes += 1;
        false
    });
    assert!(busy.is_none(), "no token while a transaction is present");
    assert!(
        gate.serial_held(),
        "the sweep runs with the serial bit taken"
    );
    let token = req
        .try_acquire(|| {
            probes += 1;
            true
        })
        .expect("nobody present");
    assert_eq!(probes, 2, "one sweep per try");
    drop(token);
    drop(req);
    assert!(!gate.closed());
    drop(gate.enter_serial(|| true));
    assert!(!gate.closed());
}

/// `TmSystem::new(mode)` and the bare builder agree on every observable
/// configuration default.
#[test]
fn builder_defaults_reproduce_new() {
    for mode in ALL_MODES {
        let legacy = TmSystem::new(mode);
        let built = TmSystem::builder().mode(mode).build();
        assert_eq!(legacy.mode(), built.mode());
        assert_eq!(legacy.policy(), built.policy());
        assert!(!legacy.adaptive_enabled());
        assert!(!built.adaptive_enabled());
        assert!(built.adaptive_config().is_none());
    }
    // The builder's default mode is HtmCondvar, like the README quickstart.
    assert_eq!(TmSystem::builder().build().mode(), AlgoMode::HtmCondvar);
}

/// Both systems behave identically on a real critical section.
#[test]
fn legacy_and_builder_systems_run_identically() {
    let run = |sys: Arc<TmSystem>| {
        let th = sys.register();
        let lock = ElidableMutex::new("equiv");
        let cell = tle_base::TCell::new(0u64);
        for _ in 0..100 {
            th.tx(&lock).run(|ctx| {
                let v = ctx.read(&cell)?;
                ctx.write(&cell, v + 1)?;
                Ok(())
            });
        }
        cell.load_direct()
    };
    assert_eq!(run(Arc::new(TmSystem::new(AlgoMode::StmCondvar))), 100);
    assert_eq!(
        run(Arc::new(
            TmSystem::builder().mode(AlgoMode::StmCondvar).build()
        )),
        100
    );
}

/// The hint type carries the section's deadline, set fluently.
#[test]
fn tx_hints_fluent() {
    let d = std::time::Duration::from_micros(50);
    assert_eq!(TxHints::new().with_deadline(d).deadline, Some(d));
    assert_eq!(TxHints::new(), TxHints::default());
    assert_eq!(TxHints::default().deadline, None);

    let sys = Arc::new(TmSystem::new(AlgoMode::HtmCondvar));
    let th = sys.register();
    let lock = ElidableMutex::new("hints");
    let got = th.tx(&lock).hints(TxHints::new()).run(|_ctx| Ok(42u64));
    assert_eq!(got, 42);
}

/// `deadline_us` is sugar for a deadline hint, and the request's `hints()`
/// merge keeps explicitly-set fields regardless of call order.
#[test]
fn tx_request_deadline_and_hint_merge_compose() {
    let sys = Arc::new(TmSystem::new(AlgoMode::StmCondvar));
    let th = sys.register();
    let lock = ElidableMutex::new("merge");

    // deadline_us(..) then hints(..) without a deadline: budget survives.
    let r = th
        .tx(&lock)
        .deadline_us(60_000_000)
        .hints(TxHints::new())
        .try_run(|_ctx| Ok(1u64));
    assert_eq!(r.unwrap(), 1);

    // hints(..) then deadline_us(..): same result.
    let r = th
        .tx(&lock)
        .hints(TxHints::new())
        .deadline_us(60_000_000)
        .try_run(|_ctx| Ok(1u64));
    assert_eq!(r.unwrap(), 1);

    // A hint-carried deadline wins over an earlier deadline_us: explicit
    // fields in the later hints() call take precedence.
    let early = std::time::Instant::now();
    let r = th
        .tx(&lock)
        .deadline_us(60_000_000)
        .hints(TxHints::new().with_deadline(std::time::Duration::ZERO))
        .try_run(|_ctx| Ok(1u64));
    assert!(
        matches!(r, Err(tle_core::TxError::DeadlineExceeded)),
        "zero deadline must shadow the earlier budget, got {r:?}"
    );
    assert!(early.elapsed() < std::time::Duration::from_secs(30));
}

/// `TryFrom<u8>` round-trips every real discriminant and errors (instead
/// of clamping) on everything else.
#[test]
fn algo_mode_tryfrom_rejects_unknown_discriminants() {
    for mode in ALL_MODES {
        assert_eq!(AlgoMode::try_from(mode as u8), Ok(mode));
    }
    assert_eq!(
        AlgoMode::try_from(AlgoMode::AdaptiveHtm as u8),
        Ok(AlgoMode::AdaptiveHtm)
    );
    assert_eq!(
        AlgoMode::try_from(6u8),
        Ok(AlgoMode::AdaptiveHtmLazy),
        "6 is the safe lazy-subscription mode in every build"
    );
    assert_eq!(AlgoMode::try_from(7u8), Ok(AlgoMode::StmNorec));
    for bad in [8u8, 9, 100, u8::MAX] {
        assert_eq!(AlgoMode::try_from(bad), Err(InvalidAlgoMode(bad)));
    }
}

/// `FromStr` accepts the CLI spellings and reports unknown ones with the
/// full list of valid spellings (what `--mode` prints on bad input).
#[test]
fn algo_mode_fromstr_spellings_and_errors() {
    let cases = [
        ("baseline", AlgoMode::Baseline),
        ("pthread", AlgoMode::Baseline),
        ("stm-spin", AlgoMode::StmSpin),
        ("spin", AlgoMode::StmSpin),
        ("stm", AlgoMode::StmCondvar),
        ("stm-condvar", AlgoMode::StmCondvar),
        ("stm-noquiesce", AlgoMode::StmCondvarNoQuiesce),
        ("noquiesce", AlgoMode::StmCondvarNoQuiesce),
        ("htm", AlgoMode::HtmCondvar),
        ("htm-condvar", AlgoMode::HtmCondvar),
        ("adaptive-htm", AlgoMode::AdaptiveHtm),
        ("adaptive", AlgoMode::AdaptiveHtm),
        ("glibc", AlgoMode::AdaptiveHtm),
        ("adaptive-htm-lazy", AlgoMode::AdaptiveHtmLazy),
        ("lazy", AlgoMode::AdaptiveHtmLazy),
        ("stm-norec", AlgoMode::StmNorec),
        ("norec", AlgoMode::StmNorec),
    ];
    for (spelling, want) in cases {
        assert_eq!(spelling.parse::<AlgoMode>(), Ok(want), "{spelling}");
    }
    for gone in ["adaptive-htm-lazy-unsafe", "lazy-unsafe"] {
        assert!(gone.parse::<AlgoMode>().is_err(), "{gone}");
    }
    let err = "quantum".parse::<AlgoMode>().unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("unknown algorithm mode \"quantum\""), "{msg}");
    assert!(msg.contains("baseline"), "{msg}");
    assert!(msg.contains("adaptive-htm-lazy"), "{msg}");
    assert!(msg.ends_with("adaptive-htm-lazy, stm-norec)"), "{msg}");
    assert!(!msg.contains("dev/check"), "{msg}");
}

/// Locks accept static and owned (dynamically generated) names — the
/// sharded-lock-table case the `&'static str` signature blocked.
#[test]
fn lock_names_static_and_dynamic() {
    let fixed = ElidableMutex::new("fixed-name");
    assert_eq!(fixed.name(), "fixed-name");

    let table: Vec<ElidableMutex> = (0..4)
        .map(|i| ElidableMutex::new(format!("shard-{i}")))
        .collect();
    for (i, lock) in table.iter().enumerate() {
        assert_eq!(lock.name(), format!("shard-{i}"));
    }

    // Dynamically-named locks work as locks, not just as labels.
    let sys = Arc::new(TmSystem::new(AlgoMode::StmCondvar));
    let th = sys.register();
    let cell = tle_base::TCell::new(0u64);
    th.tx(&table[2]).run(|ctx| ctx.write(&cell, 1));
    assert_eq!(cell.load_direct(), 1);
}
