// R5 negative: Wang's construction — waiting and signalling through the
// transactional condvar. `ctx.wait` commits the section before parking and
// re-enters on wakeup; `ctx.signal`/`ctx.broadcast` are deferred to
// commit, so an aborted signaller wakes no one.

fn tx_wait(th: &ThreadHandle, lock: &ElidableMutex, cv: &TxCondvar, c: &TCell<bool>) {
    th.tx(lock).run(|ctx| {
        if !ctx.read(c)? {
            return ctx.wait(cv, None);
        }
        Ok(())
    });
}

fn tx_signal(th: &ThreadHandle, lock: &ElidableMutex, cv: &TxCondvar, c: &TCell<bool>) {
    th.tx(lock).run(|ctx| {
        ctx.write(c, true)?;
        ctx.signal(cv)?;
        Ok(())
    });
}

fn tx_broadcast(th: &ThreadHandle, lock: &ElidableMutex, cv: &TxCondvar, c: &TCell<u64>) {
    th.tx(lock).run(|ctx| {
        ctx.update(c, |v| v + 1)?;
        ctx.broadcast(cv)?;
        Ok(())
    });
}
