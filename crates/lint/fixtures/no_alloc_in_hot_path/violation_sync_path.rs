// Fixture: lexed as crates/simnet/src/threaded/mod.rs — the control-lane
// round trip this path replaced, rebuilt inside the synchronous entry
// points, must fire `no-alloc-in-hot-path`: a channel per query, an `Arc`
// result slot and a boxed closure per call.
fn try_query<R, F>(&self, id: NodeId, f: F) -> Result<R, WorkerDead> {
    let (tx, rx) = mpsc::channel();
    self.ctl.to(id, Ctl::Invoke(Box::new(move |node, _ctx| {
        let _ = tx.send(f(node));
    })));
    rx.recv().map_err(|_| WorkerDead { node: id })
}

fn try_with_node<R, F>(&mut self, id: NodeId, f: F) -> Result<R, WorkerDead> {
    let slot = Arc::new(Mutex::new(None));
    let out = Arc::clone(&slot);
    self.post(id, move |node, ctx| *out.lock().unwrap() = Some(f(node, ctx)));
    self.await_acks(1)?;
    Ok(slot.lock().unwrap().take().unwrap())
}
