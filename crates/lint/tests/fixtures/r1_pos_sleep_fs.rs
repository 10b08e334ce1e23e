// R1 positive: sleeping and filesystem access inside an atomic block. Both
// are TM-unsafe actions (paper §VI) that force serial-irrevocable
// execution — or worse, execute speculatively and then unwind.

fn throttle(th: &ThreadHandle, lock: &ElidableMutex, cell: &TCell<u64>) {
    th.tx(lock).run(|ctx| {
        let v = ctx.read(cell)?;
        std::thread::sleep(Duration::from_millis(v)); //~ R1
        Ok(())
    });
}

fn checkpoint(th: &ThreadHandle, lock: &ElidableMutex, cell: &TCell<u64>) {
    th.tx(lock).run(|ctx| {
        let v = ctx.read(cell)?;
        File::create("checkpoint.bin")?; //~ R1
        std::fs::remove_file("checkpoint.old")?; //~ R1
        ctx.write(cell, v)?;
        Ok(())
    });
}
