// R3 positive: direct atomics inside an atomic block. The access bypasses
// the TM read/write sets — it neither participates in conflict detection
// nor rolls back, so an aborted attempt leaves the counter bumped.

fn count_inside(th: &ThreadHandle, lock: &ElidableMutex, ops: &AtomicU64, c: &TCell<u64>) {
    th.tx(lock).run(|ctx| {
        ops.fetch_add(1, Ordering::Relaxed); //~ R3
        ctx.write(c, 1)?;
        Ok(())
    });
}

fn flag_inside(th: &ThreadHandle, lock: &ElidableMutex, flag: &AtomicBool, c: &TCell<u64>) {
    th.tx(lock).run(|ctx| {
        if flag.load(Ordering::Acquire) { //~ R3
            ctx.write(c, 1)?;
        }
        flag.store(true, Ordering::Release); //~ R3
        Ok(())
    });
}
