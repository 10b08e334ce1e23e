// R6 positive: entering another async section from inside an atomic block.
// The returned future can neither be awaited here (suspension hazard) nor
// polled inline (re-entrant runtime), and the nesting itself is the x265
// two-phase-locking bug in async clothing — the builder re-entry is R2,
// the async terminal R6.

async fn nested_async_entry(th: &ThreadHandle, a: &ElidableMutex, b: &ElidableMutex) {
    th.tx(a)
        .run_async(|ctx| {
            let fut = th
                .tx(b) //~ R2
                .run_async(|inner| Ok(())); //~ R6
            drop(fut);
            Ok(())
        })
        .await;
}

fn nested_try_entry_from_sync(th: &ThreadHandle, a: &ElidableMutex, b: &ElidableMutex) {
    th.tx(a).run(|ctx| {
        let fut = th
            .tx(b) //~ R2
            .try_run_async(|inner| Ok(())); //~ R6
        drop(fut);
        Ok(())
    });
}

fn request_built_outside(th: &ThreadHandle, a: &ElidableMutex, req: TxRequest<'_>) {
    th.tx(a).run(|ctx| {
        req.run_async(|inner| Ok(())); //~ R6
        Ok(())
    });
}
