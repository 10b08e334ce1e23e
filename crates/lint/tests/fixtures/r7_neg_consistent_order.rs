//! R7 negative: both sections nest the same pair in the SAME order.
//! The nesting itself is still R2 (TLE cannot subsume inner sections),
//! but the acquisition graph is acyclic — no lock-order finding.

static PARENT: ElidableMutex<u64> = ElidableMutex::new("parent");
static CHILD: ElidableMutex<u64> = ElidableMutex::new("child");

fn path_one(th: &Thread) {
    th.tx(&PARENT).run(|ctx| {
        th.tx(&CHILD).run(|inner| { Ok(()) }) //~ R2
    });
}

fn path_two(th: &Thread) {
    th.tx(&PARENT).run(|ctx| {
        th.tx(&CHILD).run(|inner| { Ok(()) }) //~ R2
    });
}
