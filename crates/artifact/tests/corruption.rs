//! Artifact robustness: every way a file can rot must surface as the
//! matching typed [`ModelError`] — never a panic, never a garbage model.

use bnff_artifact::{
    Artifact, ArtifactWriter, ModelError, ParamKind, Provenance, FORMAT_VERSION, HEADER_LEN, MAGIC,
};
use bnff_graph::builder::GraphBuilder;
use bnff_graph::op::Conv2dAttrs;
use bnff_tensor::Shape;
use proptest::prelude::*;

/// A small but realistic artifact: a conv/FC graph with weights, biases and
/// running statistics.
fn valid_artifact() -> Vec<u8> {
    let mut b = GraphBuilder::new("corruption");
    let x = b.input("data", Shape::nchw(1, 3, 8, 8)).unwrap();
    let c = b.conv2d(x, Conv2dAttrs::same_3x3(4), "conv").unwrap();
    let g = b.global_avg_pool(c, "gap").unwrap();
    b.fully_connected(g, 2, "fc").unwrap();
    let graph = b.finish();
    let conv_idx = graph.nodes().find(|n| n.name == "conv").unwrap().id.index();
    let fc_idx = graph.nodes().find(|n| n.name == "fc").unwrap().id.index();

    let prov = Provenance {
        created_by: "corruption-test".into(),
        source: "corruption".into(),
        source_format_version: 1,
    };
    let mut w = ArtifactWriter::new(graph, 0.1, prov);
    let weights: Vec<f32> = (0..4 * 3 * 9).map(|i| (i as f32 * 0.37).sin()).collect();
    let wt = w.add_tensor("conv/weights", vec![4, 3, 3, 3], &weights).unwrap();
    w.add_param(conv_idx, ParamKind::Conv { weights: wt, bias: None });
    let fcw: Vec<f32> = (0..2 * 4).map(|i| (i as f32 * 0.11).cos()).collect();
    let fw = w.add_tensor("fc/weights", vec![2, 4], &fcw).unwrap();
    let fb = w.add_tensor("fc/bias", vec![2], &[0.1, -0.2]).unwrap();
    w.add_param(fc_idx, ParamKind::Fc { weights: fw, bias: fb });
    let mean = w.add_tensor("conv/mean", vec![4], &[0.0, 0.1, -0.1, 0.3]).unwrap();
    let var = w.add_tensor("conv/var", vec![4], &[1.0, 0.9, 1.1, 1.4]).unwrap();
    w.add_stats(conv_idx, mean, var);
    w.to_bytes().unwrap()
}

#[test]
fn the_untouched_artifact_loads() {
    let artifact = Artifact::from_bytes(&valid_artifact()).unwrap();
    assert_eq!(artifact.manifest().tensors.len(), 5);
    assert_eq!(artifact.manifest().params.len(), 2);
    assert_eq!(artifact.manifest().stats.len(), 1);
}

#[test]
fn wrong_magic_is_bad_magic() {
    let mut bytes = valid_artifact();
    bytes[0..4].copy_from_slice(b"JSON");
    match Artifact::from_bytes(&bytes) {
        Err(ModelError::BadMagic { found }) => assert_eq!(&found, b"JSON"),
        other => panic!("expected BadMagic, got {other:?}"),
    }
}

#[test]
fn future_version_is_unsupported_version() {
    let mut bytes = valid_artifact();
    bytes[4..8].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
    match Artifact::from_bytes(&bytes) {
        Err(ModelError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, FORMAT_VERSION + 1);
            assert_eq!(supported, FORMAT_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn truncation_at_every_boundary_is_truncated() {
    let bytes = valid_artifact();
    // Mid-header, mid-manifest, mid-tensor-section: all typed, none panic.
    for cut in [0, 7, HEADER_LEN - 1, HEADER_LEN + 10, bytes.len() - 1] {
        match Artifact::from_bytes(&bytes[..cut]) {
            Err(ModelError::Truncated { needed, available }) => {
                assert!(needed > available, "cut at {cut}: {needed} vs {available}");
                assert_eq!(available, cut as u64);
            }
            other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
        }
    }
}

#[test]
fn flipped_manifest_byte_is_a_manifest_checksum_mismatch() {
    let mut bytes = valid_artifact();
    bytes[HEADER_LEN + 3] ^= 0x40;
    match Artifact::from_bytes(&bytes) {
        Err(ModelError::ChecksumMismatch { section, expected, computed }) => {
            assert_eq!(section, "manifest");
            assert_ne!(expected, computed);
        }
        other => panic!("expected manifest ChecksumMismatch, got {other:?}"),
    }
}

#[test]
fn flipped_tensor_byte_is_a_tensor_checksum_mismatch() {
    let mut bytes = valid_artifact();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    match Artifact::from_bytes(&bytes) {
        Err(ModelError::ChecksumMismatch { section, .. }) => assert_eq!(section, "tensors"),
        other => panic!("expected tensor ChecksumMismatch, got {other:?}"),
    }
}

#[test]
fn trailing_garbage_is_a_layout_error() {
    let mut bytes = valid_artifact();
    bytes.extend_from_slice(&[0xAB; 16]);
    assert!(matches!(Artifact::from_bytes(&bytes), Err(ModelError::Layout(_))));
}

/// The valid artifact with its manifest text passed through `edit`, the
/// header's manifest length and CRC fixed up to match — so only layout
/// validation stands between the edited manifest and the tensor views.
fn with_edited_manifest(edit: impl Fn(&str) -> String) -> Vec<u8> {
    let bytes = valid_artifact();
    let manifest_len = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
    let manifest = std::str::from_utf8(&bytes[HEADER_LEN..HEADER_LEN + manifest_len]).unwrap();
    let evil = edit(manifest);
    assert_ne!(evil, manifest, "fixture must actually change the manifest");
    let tensor_base = (HEADER_LEN + manifest_len).next_multiple_of(64);
    let section = &bytes[tensor_base..];
    let mut rebuilt = Vec::new();
    rebuilt.extend_from_slice(&bytes[0..8]);
    rebuilt.extend_from_slice(&(evil.len() as u64).to_le_bytes());
    rebuilt.extend_from_slice(&bytes[16..24]);
    rebuilt.extend_from_slice(&bnff_artifact::crc::crc32(evil.as_bytes()).to_le_bytes());
    rebuilt.extend_from_slice(&bytes[28..32]);
    rebuilt.extend_from_slice(evil.as_bytes());
    rebuilt.resize((HEADER_LEN + evil.len()).next_multiple_of(64), 0);
    rebuilt.extend_from_slice(section);
    rebuilt
}

#[test]
fn a_lying_manifest_cannot_read_outside_the_section() {
    let rebuilt =
        with_edited_manifest(|m| m.replacen("\"offset\":0", "\"offset\":9223372036854775744", 1));
    match Artifact::from_bytes(&rebuilt) {
        // Either is sound: the offset may be rejected as out of section
        // (Truncated) or as misaligned (Layout), but it must never be
        // dereferenced.
        Err(ModelError::Truncated { .. } | ModelError::Layout(_)) => {}
        other => panic!("expected Truncated/Layout, got {other:?}"),
    }
}

#[test]
fn a_manifest_nested_past_the_parser_bound_is_a_manifest_error() {
    // A correctly checksummed manifest of a million `[`: the JSON parser
    // recurses per level, so without its nesting bound this overflows the
    // loading thread's stack (a process abort, not an error).
    let rebuilt = with_edited_manifest(|_| "[".repeat(1_000_000));
    match Artifact::from_bytes(&rebuilt) {
        Err(ModelError::Manifest(msg)) => assert!(msg.contains("recursion limit"), "{msg}"),
        other => panic!("expected Manifest, got {other:?}"),
    }
}

#[test]
fn a_shape_whose_volume_wraps_is_a_layout_error() {
    // (2^63 + 1) × 2 wraps to 2 elements = the 8 bytes fc/bias declares, so
    // unchecked multiplication would accept the shape.
    let rebuilt = with_edited_manifest(|m| {
        m.replacen("\"shape\":[2],", "\"shape\":[9223372036854775809,2],", 1)
    });
    match Artifact::from_bytes(&rebuilt) {
        Err(ModelError::Layout(msg)) => assert!(msg.contains("fc/bias"), "{msg}"),
        other => panic!("expected Layout, got {other:?}"),
    }
}

#[test]
fn a_header_whose_section_lengths_overflow_is_a_layout_error() {
    // The header is outside both CRCs, so this needs no checksum forgery.
    let mut bytes = vec![0u8; 64];
    bytes[0..4].copy_from_slice(&MAGIC);
    bytes[4..8].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    bytes[8..16].copy_from_slice(&(u64::MAX - 10).to_le_bytes());
    assert!(matches!(Artifact::from_bytes(&bytes), Err(ModelError::Layout(_))));
    // A huge tensor section on top of a plausible manifest length, too.
    bytes[8..16].copy_from_slice(&16u64.to_le_bytes());
    bytes[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(matches!(Artifact::from_bytes(&bytes), Err(ModelError::Layout(_))));
}

proptest! {
    /// Arbitrary single-byte corruption anywhere in the file yields a typed
    /// error (every byte is covered by the header, a checksum, or the
    /// zero-padding rule). Never a panic, never UB.
    #[test]
    fn random_byte_flips_never_panic(pos in 0usize..4096, mask in 1usize..256) {
        let mut bytes = valid_artifact();
        let pos = pos % bytes.len();
        bytes[pos] ^= mask as u8;
        prop_assert!(Artifact::from_bytes(&bytes).is_err());
    }

    /// Arbitrary truncation points never panic.
    #[test]
    fn random_truncations_never_panic(cut in 0usize..4096) {
        let bytes = valid_artifact();
        let cut = cut % bytes.len();
        prop_assert!(Artifact::from_bytes(&bytes[..cut]).is_err());
    }

    /// Random bytes never panic — neither as a whole file (fuzzed
    /// non-artifacts, which stop at the magic) nor behind a valid magic and
    /// version, where they become the section lengths, CRCs and manifest.
    #[test]
    fn random_blobs_never_panic(blob in prop::collection::vec(0usize..256, 0..256)) {
        let blob: Vec<u8> = blob.into_iter().map(|b| b as u8).collect();
        let _ = Artifact::from_bytes(&blob);
        let mut framed = MAGIC.to_vec();
        framed.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        framed.extend_from_slice(&blob);
        prop_assert!(Artifact::from_bytes(&framed).is_err());
    }
}
