// R2 positive: the x265 bug class (paper §V) — re-entering the TLE runtime
// while an atomic block is already open. The inner commit releases
// transactional metadata the outer section still depends on.

fn transfer(th: &ThreadHandle, a: &ElidableMutex, b: &ElidableMutex, c: &TCell<u64>) {
    th.tx(a).run(|ctx| {
        let v = ctx.read(c)?;
        th.tx(b).run(|inner| { //~ R2
            inner.write(c, v + 1)?;
            Ok(())
        });
        Ok(())
    });
}

fn reserve_then_fill(th: &ThreadHandle, q: &ElidableMutex, c: &TCell<u64>) {
    th.tx(q).run(|ctx| {
        ctx.write(c, 1)?;
        th.tx(q).hints((2, 8)).run(|inner| { //~ R2
            inner.write(c, 2)?;
            Ok(())
        });
        Ok(())
    });
}
