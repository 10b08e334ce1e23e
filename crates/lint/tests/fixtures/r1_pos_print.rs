// R1 positive: console I/O inside the speculative body (paper §VI). The
// print cannot be rolled back when the hardware transaction aborts after
// the call.

fn account_log(th: &ThreadHandle, lock: &ElidableMutex, cell: &TCell<u64>) {
    th.tx(lock).run(|ctx| {
        let v = ctx.read(cell)?;
        println!("balance now {v}"); //~ R1
        ctx.write(cell, v + 1)?;
        Ok(())
    });
}

fn account_debug(th: &ThreadHandle, lock: &ElidableMutex, cell: &TCell<u64>) {
    th.tx(lock).run(|ctx| {
        dbg!(ctx.read(cell)?); //~ R1
        Ok(())
    });
}
