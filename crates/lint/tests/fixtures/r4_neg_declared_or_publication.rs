// R4 negative: the two sanctioned no-quiesce shapes. Publication-only
// bodies (paper Listing 2's producer) never privatize, and a privatizing
// body that declares `ctx.will_free_memory()` re-enrolls in the
// allocator-mandated drain.

fn publish_only(th: &ThreadHandle, lock: &ElidableMutex, slot: &TCell<u64>, tail: &TCell<u64>) {
    th.tx(lock).run(|ctx| {
        let t = ctx.read(tail)?;
        ctx.write(slot, t)?;
        ctx.write(tail, t + 1)?;
        // Publication, not privatization: skipping the drain is safe.
        ctx.no_quiesce();
        Ok(())
    });
}

fn declared_free(th: &ThreadHandle, lock: &ElidableMutex, slot: &TCell<*mut u8>) {
    th.tx(lock).run(|ctx| {
        let p = ctx.read(slot)?;
        ctx.write(slot, core::ptr::null_mut())?;
        drop(unsafe { Box::from_raw(p) });
        ctx.no_quiesce();
        ctx.will_free_memory();
        Ok(())
    });
}
