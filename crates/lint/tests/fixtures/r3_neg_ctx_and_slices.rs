// R3 negative: the transactional accessors, plus the look-alikes the rule
// must not trip on — slice/element swap takes indices (no memory
// Ordering), and statistics atomics touched *outside* the closure are the
// drivers' sanctioned pattern.

fn disciplined(th: &ThreadHandle, lock: &ElidableMutex, c: &TCell<u64>, ops: &AtomicU64) {
    ops.fetch_add(1, Ordering::Relaxed); // outside: fine
    th.tx(lock).run(|ctx| {
        let v = ctx.read(c)?;
        ctx.write(c, v + 1)?;
        ctx.update(c, |x| x * 2)?;
        Ok(())
    });
    let _snapshot = c.load_direct(); // quiescent-state read: fine
}

fn shuffles(th: &ThreadHandle, lock: &ElidableMutex, c: &TCell<u64>) {
    let mut scratch = [1u64, 2, 3];
    th.tx(lock).run(|ctx| {
        scratch.swap(0, 2); // slice swap, no Ordering: fine
        ctx.write(c, scratch[0])?;
        Ok(())
    });
}
