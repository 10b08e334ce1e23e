// R5 positive: bare thread parking inside an atomic block. The thread
// blocks while holding speculative state (or the elided lock's serial
// fallback), and nothing ever aborts it to let the unpark happen.

fn spin_park(th: &ThreadHandle, lock: &ElidableMutex, c: &TCell<bool>) {
    th.tx(lock).run(|ctx| {
        if !ctx.read(c)? {
            std::thread::park(); //~ R5
        }
        Ok(())
    });
}

fn timed_park(th: &ThreadHandle, lock: &ElidableMutex, c: &TCell<bool>) {
    th.tx(lock).run(|ctx| {
        if !ctx.read(c)? {
            park_timeout(TIMEOUT); //~ R5
        }
        Ok(())
    });
}
