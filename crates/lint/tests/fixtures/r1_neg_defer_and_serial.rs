// R1 negative: both sanctioned escapes for irrevocable effects.
//
// (1) The paper's §VI rewrite — route the effect through a deferred action
//     that runs after commit/unlock.
// (2) Declare the section irrevocable up front with ctx.unsafe_op()?; the
//     runner re-executes it serially, so later effects never speculate.

fn deferred_logging(th: &ThreadHandle, lock: &ElidableMutex, cell: &TCell<u64>) {
    th.tx(lock).run(|ctx| {
        let v = ctx.read(cell)?;
        ctx.defer(move || println!("committed with {v}"));
        ctx.write(cell, v + 1)?;
        Ok(())
    });
}

fn serial_io(th: &ThreadHandle, lock: &ElidableMutex, cell: &TCell<u64>) {
    th.tx(lock).run(|ctx| {
        ctx.unsafe_op()?;
        // Serial-irrevocable from here on: the effect happens exactly once.
        println!("running serially");
        std::thread::sleep(Duration::from_millis(1));
        ctx.write(cell, 1)?;
        Ok(())
    });
}
