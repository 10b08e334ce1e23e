//! A deferred action may start a section of its own.
//!
//! Deferred actions ([`TxCtx::defer`]) run after the section commits or
//! releases its exclusion, outside the closure, so a section started from
//! one is not nested: the nested-section guard covers closure calls only,
//! under both drivers. Every mode, both drivers; the deferred section's
//! write must be visible once the outer section returns.

use std::sync::Arc;
use tle_base::exec::Exec;
use tle_base::TCell;
use tle_core::{AlgoMode, ElidableMutex, TmSystem, TxCtx, TxError, ALL_MODES};

fn deferred_section_runs(mode: AlgoMode, sync: bool) {
    let sys = Arc::new(TmSystem::new(mode));
    let th = Arc::new(sys.register());
    let outer = ElidableMutex::new("outer");
    let inner = Arc::new(ElidableMutex::new("deferred"));
    let x = TCell::new(0u64);
    let y = Arc::new(TCell::new(0u64));
    let body = |ctx: &mut TxCtx<'_>| -> Result<(), TxError> {
        ctx.update(&x, |v| v + 1)?;
        let (th, inner, y) = (Arc::clone(&th), Arc::clone(&inner), Arc::clone(&y));
        ctx.defer(move || {
            th.tx(&inner).run(|ctx| ctx.update(&*y, |v| v + 1));
        });
        Ok(())
    };
    if sync {
        th.tx(&outer).run(body);
    } else {
        Exec::new(1).block_on(th.tx(&outer).run_async(body));
    }
    assert_eq!(x.load_direct(), 1, "{mode:?} sync={sync}");
    assert_eq!(y.load_direct(), 1, "{mode:?} sync={sync}: deferred write");
}

#[test]
fn a_deferred_action_may_start_a_section() {
    let modes = ALL_MODES.iter().copied().chain([
        AlgoMode::StmNorec,
        AlgoMode::AdaptiveHtm,
        AlgoMode::AdaptiveHtmLazy,
    ]);
    for mode in modes {
        for sync in [true, false] {
            deferred_section_runs(mode, sync);
        }
    }
}
