//! R7 positive: a three-lock rotation (a→b, b→c, c→a). No pair is ever
//! taken in both orders, so a pairwise checker would miss it; the SCC
//! walk reports all three edges. One section uses the `tx(..)` request
//! form to pin that both entry spellings feed the same graph.

static INDEX: ElidableMutex<u64> = ElidableMutex::new("index");
static BLOCKS: ElidableMutex<u64> = ElidableMutex::new("blocks");
static JOURNAL: ElidableMutex<u64> = ElidableMutex::new("journal");

fn index_then_blocks(th: &Thread) {
    th.tx(&INDEX).run(|ctx| {
        th.tx(&BLOCKS).run(|inner| { Ok(()) }) //~ R2,R7
    });
}

fn blocks_then_journal(th: &Thread) {
    th.tx(&BLOCKS).run(|ctx| {
        th.tx(&JOURNAL).run(|inner| { Ok(()) }) //~ R2,R7
    });
}

fn journal_then_index(th: &Thread) {
    th.tx(&JOURNAL).run(|ctx| {
        th.tx(&INDEX).run(|inner| { Ok(()) }) //~ R2,R7
    });
}
