// Fixture: lexed as crates/dsm/src/protocol/op_log.rs — a flush that
// walks the buffers by iterator and groups equal lists cannot panic, and
// must stay silent even though it builds its group list (`vec![..]`:
// once per window, and `no-alloc-in-hot-path` does not scope it); so must
// indexing in a write-path helper outside the scoped functions.
fn on_timer(&mut self, ctx: &mut NodeContext<Msg>, tag: u64) {
    if tag == FLUSH_TAG {
        self.flush_armed = false;
        self.flush(ctx, 1);
    }
}

fn flush(&mut self, ctx: &mut NodeContext<Msg>, at_least: usize) {
    let mut groups: Vec<(Arc<[Record]>, Vec<NodeId>)> = Vec::new();
    for (d, buffer) in self.buffers.iter_mut().enumerate() {
        if buffer.len() < at_least {
            continue;
        }
        match groups.iter_mut().find(|(records, _)| same_writes(records, buffer)) {
            Some((_, dests)) => dests.push(NodeId(d)),
            None => groups.push((buffer.as_slice().into(), vec![NodeId(d)])),
        }
        buffer.clear();
    }
    for (records, dests) in groups {
        ctx.send_multi(dests, Msg::ControlBatch { records });
    }
}

fn buffer_record(&mut self, t: NodeId, record: Record) {
    self.buffers[t.index()].push(record);
}
