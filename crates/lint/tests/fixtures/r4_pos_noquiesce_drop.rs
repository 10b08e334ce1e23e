// R4 positive: TM_NoQuiesce asserted by a transaction that privatizes
// (paper §IV-B). Skipping the drain while freeing the payload races
// doomed transactions that still hold speculative references to it.

fn pop_and_free(th: &ThreadHandle, lock: &ElidableMutex, slot: &TCell<*mut u8>) {
    th.tx(lock).run(|ctx| {
        let p = ctx.read(slot)?;
        ctx.write(slot, core::ptr::null_mut())?;
        drop(unsafe { Box::from_raw(p) });
        ctx.no_quiesce(); //~ R4
        Ok(())
    });
}

fn recycle(th: &ThreadHandle, lock: &ElidableMutex, slot: &TCell<*mut u8>) {
    th.tx(lock).run(|ctx| {
        let p = ctx.read(slot)?;
        unsafe { dealloc(p, layout()) };
        ctx.no_quiesce(); //~ R4
        Ok(())
    });
}
