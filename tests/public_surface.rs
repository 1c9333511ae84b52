//! Public-surface ratchet: in the seven library crates `pub` means
//! "another package calls it", and the count may only go down.
//!
//! `dead_code` never looks at a `pub` item, so an uncalled `pub fn` is
//! invisible to the compiler. PR 22 demoted every item, field and
//! re-export with no user outside its own crate and deleted what the
//! compiler then proved dead; this test holds the per-crate counts at the
//! numbers that census ended on, so a new `pub` is a one-line, reviewed
//! edit to [`CEILING`] instead of the default spelling.

use std::fs;
use std::path::Path;

/// Per crate directory: `pub` items (fn / struct / enum / trait / const /
/// static / type — module declarations are not counted, they keep every
/// surviving path resolvable), `pub` named fields, and `pub use` names,
/// all in the non-test region of `src/` (up to the `#[cfg(test)] mod`).
const CEILING: [(&str, usize, usize, usize); 7] = [
    ("core", 87, 3, 19),
    ("router", 72, 45, 15),
    ("network", 73, 44, 19),
    ("sim", 100, 11, 6),
    ("workload", 25, 13, 7),
    ("standalone", 5, 5, 1),
    ("bench", 16, 12, 0),
];

const RECIPE: &str = "\
A `pub` was added to a library crate. If another package calls it (another
workspace crate, the `fig` binary, tests/, a crate's own tests/, examples/,
perf/ or a doc-test), raise that crate's number in tests/public_surface.rs
in the same commit. If nothing outside the crate calls it, spell it
`pub(crate)` — dead_code can then see it.

To re-run the whole census (`tools/census.py split | demote | fix` does
steps 1-3; its header has the rest):
  1. split every multi-name `pub use` into one statement per name;
  2. rewrite every `pub` item, field and `pub use` in the non-test region of
     crates/{core,router,network,sim,workload,standalone,bench}/src to
     `pub(crate)` (leave `pub mod` alone);
  3. `cargo check --workspace --all-targets`, the same on perf/, then
     `cargo test --doc --workspace`; re-promote exactly what the privacy
     errors name; repeat until clean;
  4. delete what `cargo check --workspace` then reports as dead_code or
     unused_imports, with the unit tests that were its only callers; repeat;
  5. clippy, rustdoc (`-D warnings`: unlink private intra-doc links) and fmt.
A fixed point demotes nothing: the ceilings are what step 3 leaves.";

#[derive(Default)]
struct Census {
    items: usize,
    fields: usize,
    reexports: usize,
}

/// True for `name:` (a named field), false for `name::` and everything else.
fn is_field(rest: &str) -> bool {
    let ident = rest
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .unwrap_or(rest.len());
    let starts_lower = rest.starts_with(|c: char| c.is_ascii_lowercase() || c == '_');
    let after = rest[ident..].trim_start();
    starts_lower && after.starts_with(':') && !after.starts_with("::")
}

/// Leaf names of one `pub use` statement body (`a::{b, c::d}` is two).
fn use_leaves(body: &str) -> usize {
    body.split(['{', '}', ','])
        .map(str::trim)
        .filter(|leaf| !leaf.is_empty() && !leaf.ends_with("::"))
        .count()
}

fn scan_file(text: &str, census: &mut Census) {
    const ITEM_KEYWORDS: [&str; 9] = [
        "fn ",
        "unsafe fn ",
        "struct ",
        "enum ",
        "trait ",
        "const ",
        "static ",
        "type ",
        "union ",
    ];
    let mut open_use: Option<String> = None;
    let mut lines = text.lines().map(str::trim).peekable();
    while let Some(line) = lines.next() {
        // The unit-test module ends the census; a `#[cfg(test)]` on a
        // single item (a test-only reference kept beside live code) does not.
        if line == "#[cfg(test)]" && lines.peek().is_some_and(|next| next.starts_with("mod ")) {
            break;
        }
        if let Some(body) = open_use.as_mut() {
            body.push_str(line);
        } else if let Some(rest) = line.strip_prefix("pub ") {
            if let Some(body) = rest.strip_prefix("use ") {
                open_use = Some(body.to_string());
            } else if ITEM_KEYWORDS.iter().any(|k| rest.starts_with(k)) {
                census.items += 1;
            } else if is_field(rest) {
                census.fields += 1;
            }
        }
        if open_use.as_ref().is_some_and(|body| body.ends_with(';')) {
            let body = open_use.take().expect("checked above");
            census.reexports += use_leaves(body.trim_end_matches(';'));
        }
    }
}

fn scan_dir(dir: &Path, census: &mut Census) {
    let mut entries: Vec<_> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.expect("readable directory entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            // `src/bin/` holds binaries: other packages cannot call them.
            if path.file_name().is_some_and(|name| name != "bin") {
                scan_dir(&path, census);
            }
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            let text = fs::read_to_string(&path).expect("readable source file");
            scan_file(&text, census);
        }
    }
}

#[test]
fn library_crates_export_no_more_than_the_census_left() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut over = Vec::new();
    let mut table = String::new();
    for (name, items, fields, reexports) in CEILING {
        let mut census = Census::default();
        scan_dir(&crates.join(name).join("src"), &mut census);
        table.push_str(&format!(
            "  {name:<10} items {:>3}/{items:<3} fields {:>3}/{fields:<3} re-exports {:>3}/{reexports}\n",
            census.items, census.fields, census.reexports
        ));
        for (kind, found, ceiling) in [
            ("pub items", census.items, items),
            ("pub fields", census.fields, fields),
            ("pub use names", census.reexports, reexports),
        ] {
            if found > ceiling {
                over.push(format!("crates/{name}: {found} {kind}, ceiling {ceiling}"));
            }
        }
    }
    assert!(
        over.is_empty(),
        "public surface grew:\n  {}\n\nfound/ceiling per crate:\n{table}\n{RECIPE}",
        over.join("\n  ")
    );
}

#[test]
fn scanner_counts_what_the_census_counts() {
    let mut census = Census::default();
    scan_file(
        "pub mod m;\n\
         pub use a::{B, c::D,\n    E};\n\
         pub use f::G;\n\
         pub(crate) use h::I;\n\
         pub struct S {\n    pub x: u8,\n    pub(crate) y: u8,\n    z: u8,\n}\n\
         pub const fn k() {}\n\
         pub(crate) fn hidden() {}\n\
         impl S {\n    #[cfg(test)]\n    fn probe() {}\n    pub fn new() -> Self { todo!() }\n}\n\
         #[cfg(test)]\n\
         mod tests {\n    pub fn not_counted() {}\n}\n",
        &mut census,
    );
    assert_eq!(
        (census.items, census.fields, census.reexports),
        (3, 1, 4),
        "struct S, const fn k, fn new / field x / B, D, E, G"
    );
}
