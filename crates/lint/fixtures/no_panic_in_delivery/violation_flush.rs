// Fixture: lexed as crates/dsm/src/protocol/op_log.rs — the batching
// flush decides what every non-replica hears, so a timer handler that
// asserts its tag and a flush that indexes the per-destination buffers
// must fire `no-panic-in-delivery`.
fn on_timer(&mut self, ctx: &mut NodeContext<Msg>, tag: u64) {
    assert_eq!(tag, FLUSH_TAG, "only the flush timer is ever armed");
    self.flush(ctx, 1);
}

fn flush(&mut self, ctx: &mut NodeContext<Msg>, at_least: usize) {
    for d in 0..self.buffers.len() {
        if self.buffers[d].len() >= at_least {
            let records = std::mem::take(&mut self.buffers[d]);
            let first = records.first().unwrap();
            self.control.charge_sent(first.var, first.full_bytes());
            ctx.send(NodeId(d), Msg::ControlBatch { records });
        }
    }
}
