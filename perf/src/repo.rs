//! The tracked size numbers of the measured workspace: a source scan of
//! `crates/*/src`, relative to the directory the benchmark runs in.

use std::path::Path;

/// Lines of Rust, `pub` items, and reasoned `panic-in-lib` exemptions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepoSize {
    /// Lines in `.rs` files.
    pub rust_lines: usize,
    /// Lines that open a `pub` item.
    pub pub_items: usize,
    /// `allow(panic-in-lib, ...)` comments.
    pub panic_exemptions: usize,
}

const PUB_ITEMS: [&str; 9] = [
    "pub fn ",
    "pub struct ",
    "pub enum ",
    "pub trait ",
    "pub const ",
    "pub type ",
    "pub mod ",
    "pub static ",
    "pub use ",
];

/// Scans one source text.
pub fn scan_text(text: &str, into: &mut RepoSize) {
    for line in text.lines() {
        into.rust_lines += 1;
        let code = line.trim_start();
        into.pub_items += usize::from(PUB_ITEMS.iter().any(|p| code.starts_with(p)));
        into.panic_exemptions += usize::from(code.contains("allow(panic-in-lib"));
    }
}

fn scan_dir(dir: &Path, into: &mut RepoSize) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            scan_dir(&path, into)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            scan_text(&std::fs::read_to_string(&path)?, into);
        }
    }
    Ok(())
}

/// Scans `root/crates/*/src`.
pub fn scan(root: &Path) -> std::io::Result<RepoSize> {
    let mut size = RepoSize::default();
    for entry in std::fs::read_dir(root.join("crates"))? {
        let src = entry?.path().join("src");
        if src.is_dir() {
            scan_dir(&src, &mut size)?;
        }
    }
    Ok(size)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_lines_items_and_exemptions() {
        let mut size = RepoSize::default();
        scan_text(
            "pub fn a() {}\n    pub struct B;\nfn private() {}\n// moctopus-lint: allow(panic-in-lib, reason = \"x\")\nlet public = 1;\n",
            &mut size,
        );
        assert_eq!(size, RepoSize { rust_lines: 5, pub_items: 2, panic_exemptions: 1 });
    }
}
