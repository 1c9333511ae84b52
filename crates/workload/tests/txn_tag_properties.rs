//! Property coverage for `TxnTag`: the pack/unpack bijection over every
//! field boundary.

use workload::TxnTag;

/// The seq field's 31-bit boundary: the last representable value
/// round-trips, the first unrepresentable one is rejected.
const SEQ_MAX: u32 = (1 << 31) - 1;

#[test]
fn txn_tag_roundtrip_is_exhaustive_over_field_boundaries() {
    // Every combination of the per-field boundary values (plus interior
    // points) must survive pack → unpack unchanged; 5*5*2*6 = 300 tags.
    let node_values = [0u16, 1, 0x00ff, 0x8000, u16::MAX];
    let seq_values = [0u32, 1, 0xffff, 0x7fff_0000, SEQ_MAX - 1, SEQ_MAX];
    for requester in node_values {
        for owner in node_values {
            for three_hop in [false, true] {
                for seq in seq_values {
                    let tag = TxnTag {
                        requester,
                        owner,
                        three_hop,
                        seq,
                    };
                    assert_eq!(
                        TxnTag::unpack(tag.pack()),
                        tag,
                        "roundtrip req={requester:#06x} owner={owner:#06x} \
                         three_hop={three_hop} seq={seq:#010x}"
                    );
                }
            }
        }
    }
}

#[test]
fn txn_tag_boundary_packs_use_distinct_bit_patterns() {
    // All-ones fields must not bleed into each other: the packed words
    // for "max requester", "max owner" and "max seq" share no set bits
    // outside their own lanes.
    let req = TxnTag {
        requester: u16::MAX,
        owner: 0,
        three_hop: false,
        seq: 0,
    }
    .pack();
    let owner = TxnTag {
        requester: 0,
        owner: u16::MAX,
        three_hop: false,
        seq: 0,
    }
    .pack();
    let hop = TxnTag {
        requester: 0,
        owner: 0,
        three_hop: true,
        seq: 0,
    }
    .pack();
    let seq = TxnTag {
        requester: 0,
        owner: 0,
        three_hop: false,
        seq: SEQ_MAX,
    }
    .pack();
    assert_eq!(req & owner, 0);
    assert_eq!(req & hop, 0);
    assert_eq!(req & seq, 0);
    assert_eq!(owner & hop, 0);
    assert_eq!(owner & seq, 0);
    assert_eq!(hop & seq, 0);
    assert_eq!(req | owner | hop | seq, u64::MAX, "lanes cover the word");
}

#[test]
#[should_panic(expected = "seq exceeds the 31-bit field")]
fn txn_tag_rejects_seq_past_the_field_width() {
    let _ = TxnTag {
        requester: 0,
        owner: 0,
        three_hop: false,
        seq: SEQ_MAX + 1,
    }
    .pack();
}
