//! `histories` is the bottom layer and depends on no first-party crate.
//! Cargo refuses every other upward edge as a cycle, but not this one:
//! `simnet` does not depend on `histories`.

#[test]
fn the_manifest_names_no_first_party_dependency() {
    let manifest = include_str!("../Cargo.toml");
    let (_, deps) = manifest.split_once("\n[dependencies]").unwrap_or_default();
    let deps = deps.split("\n[").next().unwrap_or_default();
    for name in ["simnet", "dsm", "apps", "bench"] {
        let named = deps.lines().any(|line| line.trim_start().starts_with(name));
        assert!(!named, "histories must not depend on {name}");
    }
}
