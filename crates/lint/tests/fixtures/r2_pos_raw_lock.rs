// R2 positive: acquiring a second, non-elided lock under speculation. If
// the transaction aborts after the acquisition the release never runs —
// the two-phase-locking discipline the paper's x265 fix restores.

fn double_lock(th: &ThreadHandle, lock: &ElidableMutex, side: &Mutex<Vec<u8>>) {
    th.tx(lock).run(|ctx| {
        let mut out = side.lock(); //~ R2
        out.push(ctx.read_byte()?);
        Ok(())
    });
}

fn guarded_read(th: &ThreadHandle, lock: &ElidableMutex, table: &RwLock<u64>) {
    th.tx(lock).run(|ctx| {
        let snapshot = table.read(); //~ R2
        ctx.write_snapshot(snapshot)?;
        Ok(())
    });
}

fn try_side_lock(th: &ThreadHandle, lock: &ElidableMutex, side: &Mutex<u64>) {
    th.tx(lock).run(|_ctx| {
        if let Some(g) = side.try_lock() { //~ R2
            drop(g);
        }
        Ok(())
    });
}
