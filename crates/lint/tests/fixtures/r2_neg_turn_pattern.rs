// R2 negative: the sink's turn pattern — the raw mutex is taken *between*
// two atomic blocks, never inside one (privatization-by-turn; in PBZip2
// this is the output-file write). Sequential sections on the same lock are
// fine; only nesting is the hazard.

fn submit(th: &ThreadHandle, lock: &ElidableMutex, out: &Mutex<Vec<u8>>, next: &TCell<u64>, id: u64) {
    th.tx(lock).run(|ctx| {
        if ctx.read(next)? != id {
            return ctx.wait_turn();
        }
        Ok(())
    });
    // We exclusively own the turn: lock outside any transaction.
    {
        let mut buf = out.lock();
        buf.push(id as u8);
    }
    th.tx(lock).run(|ctx| {
        ctx.write(next, id + 1)?;
        Ok(())
    });
}

fn transactional_read_write(th: &ThreadHandle, lock: &ElidableMutex, cell: &TCell<u64>) {
    th.tx(lock).run(|ctx| {
        // ctx.read/ctx.write take arguments — these are the transactional
        // accessors, not RwLock guards.
        let v = ctx.read(cell)?;
        ctx.write(cell, v + 1)?;
        Ok(())
    });
}
