// R4 positive: a lock pinned to `StmCondvarNoQuiesce` honours its
// sections' `no_quiesce()` calls, so an annotated section that privatizes
// skips the drain it needs. The pin alone is no finding: the unannotated
// section under it still drains.

fn setup(sys: &TmSystem, lock: &ElidableMutex) {
    sys.set_lock_mode(lock, AlgoMode::StmCondvarNoQuiesce);
}

fn take_and_free(th: &ThreadHandle, lock: &ElidableMutex, slot: &TCell<*mut u8>) {
    th.tx(lock).hints(TxHints::new()).run(|ctx| {
        ctx.no_quiesce(); //~ R4
        let p = ctx.read(slot)?;
        ctx.write(slot, core::ptr::null_mut())?;
        drop(unsafe { Box::from_raw(p) });
        Ok(())
    });
}

fn drain_one(th: &ThreadHandle, lock: &ElidableMutex, slot: &TCell<*mut u8>) {
    th.tx(lock).run(|ctx| {
        let p = ctx.read(slot)?;
        ctx.write(slot, core::ptr::null_mut())?;
        drop(unsafe { Box::from_raw(p) });
        Ok(())
    });
}
