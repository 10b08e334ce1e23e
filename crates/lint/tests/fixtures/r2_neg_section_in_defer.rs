// R2 negative: a section started from a deferred action. `.defer(..)`
// bodies run after the outer section commits or releases its lock, outside
// the closure, so the inner section is sequential, not nested — the runtime
// runs it on either driver.

fn bump_then_log(th: &Arc<ThreadHandle>, a: &ElidableMutex, log: &Arc<ElidableMutex>, c: &TCell<u64>, n: &Arc<TCell<u64>>) {
    th.tx(a).run(|ctx| {
        ctx.update(c, |v| v + 1)?;
        let (th2, log, n) = (Arc::clone(th), Arc::clone(log), Arc::clone(n));
        ctx.defer(move || {
            th2.tx(&log).run(|inner| inner.update(&*n, |v| v + 1));
        });
        Ok(())
    });
}
