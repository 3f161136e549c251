//! Snapshot images whose rows a store would trust blindly.
//!
//! `HeterogeneousStorage::from_rows` installs a host row's slots and free
//! list as decoded, and an engine restores `edge_count` as stored. A free
//! position past the slots makes the next insert into the row index out of
//! bounds; one at a live slot, or listed twice, makes a later insert
//! overwrite a live edge; a live edge in two slots leaves one slot out of the
//! position map; an `edge_count` the rows do not hold underflows on a later
//! delete. A row id repeated within a section makes the second row replace
//! the first on install, leaving `edge_count` or the position map behind; an
//! adjacency row out of order, or an id at or past the saved id bound, is an
//! image no graph exports. Each such image — checksum intact — must fail to
//! decode with a reason, and reading it from disk must report the file as
//! corrupt.

use graph_store::{
    GraphStoreError, HostRowSnapshot, Label, LocalModuleSnapshot, NodeId, SnapshotState,
};

/// A consistent image: two module rows, a host row with one free slot, and
/// two adjacency rows (one edge-less) — seven edges in all.
fn image() -> SnapshotState {
    SnapshotState {
        edge_count: 7,
        local_modules: vec![LocalModuleSnapshot {
            rows: vec![
                (NodeId(1), vec![(NodeId(2), Label(3)), (NodeId(4), Label::ANY)]),
                (NodeId(3), vec![(NodeId(1), Label(3))]),
            ],
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
        adjacency_rows: vec![
            (NodeId(0), vec![(NodeId(2), Label(1)), (NodeId(7), Label(1))]),
            (NodeId(2), vec![]),
        ],
        adjacency_id_bound: 8,
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
    let cases: [(&str, Corrupt); 13] = [
        ("past its 3 slots", |s| s.host_rows[0].free = vec![3]),
        ("holds a live edge", |s| s.host_rows[0].free = vec![0]),
        ("listed twice", |s| s.host_rows[0].free = vec![1, 1]),
        ("fills two slots", |s| s.host_rows[0].slots[2] = (NodeId(5), Label::ANY)),
        ("hold 7 edges", |s| s.edge_count = 8),
        ("hold 7 edges", |s| s.edge_count = 6),
        ("module row 1 is not strictly sorted", |s| s.local_modules[0].rows[0].1.reverse()),
        ("module row 1 follows row 1", |s| s.local_modules[0].rows[1].0 = NodeId(1)),
        ("host row 9 follows row 9", |s| {
            let twin = HostRowSnapshot { slots: vec![], free: vec![], ..s.host_rows[0].clone() };
            s.host_rows.push(twin);
        }),
        ("adjacency row 0 follows row 2", |s| s.adjacency_rows.swap(0, 1)),
        ("adjacency row 0 is not strictly sorted", |s| s.adjacency_rows[0].1.reverse()),
        ("adjacency id 8 is not below the id bound 8", |s| s.adjacency_rows[1].0 = NodeId(8)),
        ("adjacency id 7 is not below the id bound 7", |s| s.adjacency_id_bound = 7),
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
