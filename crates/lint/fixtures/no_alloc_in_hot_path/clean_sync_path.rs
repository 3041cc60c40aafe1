// Fixture: lexed as crates/simnet/src/threaded/mod.rs — running the
// closure in place under the site lock, and boxing a closure on the
// pipelined path (which is outside the synchronous scope), must stay
// silent.
fn site(&self, id: NodeId) -> Result<MutexGuard<'_, Site<P, N>>, WorkerDead> {
    let cell = &self.sites[id.index()];
    while cell.lane_done.load(Ordering::Acquire) < self.lane_posted[id.index()] {
        self.ensure_alive()?;
        std::thread::yield_now();
    }
    cell.site.lock().map_err(|_| WorkerDead { node: id })
}

fn try_query<R, F>(&self, id: NodeId, f: F) -> Result<R, WorkerDead> {
    Ok(f(&self.site(id)?.node))
}

fn try_with_node<R, F>(&mut self, id: NodeId, f: F) -> Result<R, WorkerDead> {
    let mut site = self.site(id)?;
    Ok(site.invoke(f))
}

fn try_with_node_async<F>(&mut self, id: NodeId, f: F) -> Result<(), WorkerDead> {
    self.inflight.up();
    self.post(id, Ctl::InvokeAsync(Box::new(f)));
    Ok(())
}
