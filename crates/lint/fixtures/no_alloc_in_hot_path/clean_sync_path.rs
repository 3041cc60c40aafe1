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

fn inspect(&self, id: NodeId, f: &mut dyn FnMut(&N)) -> Result<(), NetError> {
    f(&self.site(id)?.node);
    Ok(())
}

fn invoke(&mut self, id: NodeId, f: &mut dyn FnMut(&mut N, &mut NodeContext<P>)) -> Result<(), NetError> {
    let mut site = self.site(id)?;
    Ok(site.invoke(f)?)
}

fn post(&mut self, id: NodeId, f: F) -> Result<(), NetError> {
    self.inflight.up();
    self.post_lane(id, Ctl::InvokeAsync(Box::new(f)));
    Ok(())
}
