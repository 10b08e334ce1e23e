// R3 positive: TCell back-doors and raw-pointer access inside an atomic
// block. `load_direct`/`store_direct` are quiescent-state accessors — used
// under speculation they read around the transaction's own write set.

fn peek_around(th: &ThreadHandle, lock: &ElidableMutex, c: &TCell<u64>) {
    th.tx(lock).run(|ctx| {
        let shadow = c.load_direct(); //~ R3
        ctx.write(c, shadow + 1)?;
        Ok(())
    });
}

fn poke_around(th: &ThreadHandle, lock: &ElidableMutex, c: &TCell<u64>, p: *mut u64) {
    th.tx(lock).run(|ctx| {
        c.store_direct(9); //~ R3
        let v = unsafe { std::ptr::read(p) }; //~ R3
        ctx.write(c, v)?;
        Ok(())
    });
}
