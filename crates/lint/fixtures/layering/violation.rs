// Fixture: lexed as simnet code — a reverse import of the dsm layer must
// fire `layering`.
use dsm::DynDsm;

pub fn reach_up() {
    let _ = apps::scenario_count();
}
