//! Snapshot images whose rows a store would trust blindly.
//!
//! `HeterogeneousStorage::from_rows` installs a host row's slots and free
//! list as decoded, and an engine restores `edge_count` as stored. A free
//! position past the slots makes the next insert into the row index out of
//! bounds; one at a live slot, or listed twice, makes a later insert
//! overwrite a live edge; a live edge in two slots leaves one slot out of the
//! position map; an `edge_count` the rows do not hold underflows on a later
//! delete. Each such image — checksum intact — must fail to decode with a
//! reason, and reading it from disk must report the file as corrupt.

use graph_store::{
    GraphStoreError, HostRowSnapshot, Label, LocalModuleSnapshot, NodeId, SnapshotState,
};

/// A consistent image: a module row and a host row with one free slot —
/// four edges in all.
fn image() -> SnapshotState {
    SnapshotState {
        edge_count: 4,
        local_modules: vec![LocalModuleSnapshot {
            rows: vec![(NodeId(1), vec![(NodeId(2), Label(3)), (NodeId(4), Label::ANY)])],
            capacity_bytes: None,
        }],
        host_rows: vec![HostRowSnapshot {
            node: NodeId(9),
            slots: vec![
                (NodeId(5), Label::ANY),
                (NodeId(u64::MAX), Label::ANY),
                (NodeId(6), Label(2)),
            ],
            free: vec![1],
        }],
        ..SnapshotState::default()
    }
}

#[test]
fn a_consistent_image_decodes() {
    let image = image();
    assert_eq!(SnapshotState::decode_file(&image.encode_file()), Ok(image));
}

#[test]
fn rows_a_store_would_trust_blindly_are_rejected() {
    type Corrupt = fn(&mut SnapshotState);
    let cases: [(&str, Corrupt); 7] = [
        ("past its 3 slots", |s| s.host_rows[0].free = vec![3]),
        ("holds a live edge", |s| s.host_rows[0].free = vec![0]),
        ("listed twice", |s| s.host_rows[0].free = vec![1, 1]),
        ("fills two slots", |s| s.host_rows[0].slots[2] = (NodeId(5), Label::ANY)),
        ("hold 4 edges", |s| s.edge_count = 5),
        ("hold 4 edges", |s| s.edge_count = 3),
        ("not strictly sorted", |s| s.local_modules[0].rows[0].1.reverse()),
    ];
    for (reason, corrupt) in cases {
        let mut image = image();
        corrupt(&mut image);
        let err = SnapshotState::decode_file(&image.encode_file()).expect_err(reason);
        assert!(err.1.contains(reason), "{reason}: {err:?}");
    }

    let dir = std::env::temp_dir().join(format!("moctopus-snapshot-rows-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("state.msnp");
    let mut image = image();
    image.host_rows[0].free = vec![3];
    image.write_file(&path).unwrap();
    let err = SnapshotState::read_file(&path).unwrap_err();
    assert!(matches!(err, GraphStoreError::Corrupt { .. }), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}
