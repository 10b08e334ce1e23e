// R6 positive: suspension points inside an atomic block. Attempts must
// start and finish inside one poll — an `.await` would hold speculative
// state (orecs, line claims, the serial token) across arbitrary scheduling
// delays, and `block_on` drives a future to completion on the very
// executor worker the section runs on (deadlock-prone).

async fn await_in_section(th: &ThreadHandle, lock: &ElidableMutex, c: &TCell<u64>) {
    th.tx(lock)
        .run_async(|ctx| {
            let v = ctx.read(c)?;
            fetch_remote(v).await; //~ R6
            ctx.write(c, v + 1)?;
            Ok(())
        })
        .await;
}

fn block_on_in_section(th: &ThreadHandle, lock: &ElidableMutex, c: &TCell<u64>) {
    th.tx(lock).run(|ctx| {
        let v = ctx.read(c)?;
        block_on(fetch_remote(v)); //~ R6
        ctx.write(c, v + 1)?;
        Ok(())
    });
}

fn block_on_in_legacy_section(th: &ThreadHandle, lock: &ElidableMutex, c: &TCell<u64>) {
    th.tx(lock).run(|ctx| {
        exec.block_on(refresh()); //~ R6
        ctx.update(c, |v| v + 1)?;
        Ok(())
    });
}
