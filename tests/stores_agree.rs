//! Property tests: the three one-dimensional cumulative stores (B^c tree,
//! its blocked layout, Fenwick tree) agree with a scanned `Vec` reference
//! under arbitrary update sequences, fanouts, and insertions.

use ddc_btree::{BcTree, BlockedBc, CumulativeStore, Fenwick};
use ddc_tests::{for_cases, DdcRng};

#[derive(Clone, Debug)]
enum Op {
    Add(usize, i64),
    Set(usize, i64),
    Prefix(usize),
    Range(usize, usize),
}

fn gen_ops(rng: &mut DdcRng) -> Vec<Op> {
    let count = rng.gen_range(1usize..60);
    (0..count)
        .map(|_| match rng.gen_range(0usize..4) {
            0 => Op::Add(rng.gen_range(0usize..64), rng.gen_range(-500i64..500)),
            1 => Op::Set(rng.gen_range(0usize..64), rng.gen_range(-500i64..500)),
            2 => Op::Prefix(rng.gen_range(0usize..64)),
            _ => {
                let a = rng.gen_range(0usize..64);
                let b = rng.gen_range(0usize..64);
                Op::Range(a.min(b), a.max(b))
            }
        })
        .collect()
}

for_cases! {
    fn stores_match_vec_reference(rng, cases = 64) {
        let len = rng.gen_range(1usize..64);
        let fanout = rng.gen_range(3usize..12);
        let ops = gen_ops(rng);
        let mut reference = vec![0i64; len];
        let mut stores: Vec<Box<dyn CumulativeStore<i64>>> = vec![
            Box::new(BcTree::zeroed(fanout, len)),
            Box::new(Fenwick::zeroed(len)),
            Box::new(BlockedBc::zeroed(len)),
        ];
        for op in &ops {
            match op {
                Op::Add(i, v) => {
                    let i = i % len;
                    reference[i] += v;
                    for s in stores.iter_mut() {
                        s.add(i, *v);
                    }
                }
                Op::Set(i, v) => {
                    let i = i % len;
                    reference[i] = *v;
                    for s in stores.iter_mut() {
                        s.set(i, *v);
                    }
                }
                Op::Prefix(i) => {
                    let i = i % len;
                    let expect: i64 = reference[..=i].iter().sum();
                    for s in stores.iter() {
                        assert_eq!(s.prefix(i), expect, "{}", s.name());
                    }
                }
                Op::Range(a, b) => {
                    let (a, b) = (a % len, b % len);
                    let (a, b) = (a.min(b), a.max(b));
                    let expect: i64 = reference[a..=b].iter().sum();
                    for s in stores.iter() {
                        assert_eq!(s.range(a, b), expect, "{}", s.name());
                    }
                }
            }
        }
        // Terminal: totals and every value agree.
        for s in stores.iter() {
            assert_eq!(s.total(), reference.iter().sum::<i64>(), "{}", s.name());
            for (i, &v) in reference.iter().enumerate() {
                assert_eq!(s.value(i), v, "{} value({})", s.name(), i);
            }
        }
    }

    fn bc_insertion_matches_vec(rng, cases = 64) {
        let fanout = rng.gen_range(3usize..8);
        let count = rng.gen_range(1usize..80);
        let inserts: Vec<(usize, i64)> = (0..count)
            .map(|_| (rng.gen_range(0usize..100), rng.gen_range(-100i64..100)))
            .collect();
        let mut reference: Vec<i64> = Vec::new();
        let mut tree = BcTree::<i64>::new(fanout);
        for (pos, v) in &inserts {
            let pos = pos % (reference.len() + 1);
            reference.insert(pos, *v);
            tree.insert(pos, *v);
        }
        assert_eq!(tree.len(), reference.len());
        let mut acc = 0i64;
        for (i, &v) in reference.iter().enumerate() {
            acc += v;
            assert_eq!(tree.prefix(i), acc, "prefix({})", i);
        }
    }

    fn bc_insert_remove_matches_vec(rng, cases = 64) {
        let fanout = rng.gen_range(3usize..8);
        let count = rng.gen_range(1usize..120);
        let ops: Vec<(bool, usize, i64)> = (0..count)
            .map(|_| (rng.gen_bool(0.5), rng.gen_range(0usize..100), rng.gen_range(-100i64..100)))
            .collect();
        let mut reference: Vec<i64> = Vec::new();
        let mut tree = BcTree::<i64>::new(fanout);
        for (is_insert, pos, v) in &ops {
            if *is_insert || reference.is_empty() {
                let pos = pos % (reference.len() + 1);
                reference.insert(pos, *v);
                tree.insert(pos, *v);
            } else {
                let pos = pos % reference.len();
                assert_eq!(tree.remove(pos), reference.remove(pos));
            }
        }
        assert_eq!(tree.len(), reference.len());
        let mut acc = 0i64;
        for (i, &v) in reference.iter().enumerate() {
            acc += v;
            assert_eq!(tree.prefix(i), acc, "prefix({})", i);
            assert_eq!(tree.value(i), v, "value({})", i);
        }
    }

    fn fenwick_push_matches_from_values(rng, cases = 64) {
        let count = rng.gen_range(1usize..120);
        let values: Vec<i64> = (0..count).map(|_| rng.gen_range(-100i64..100)).collect();
        let bulk = Fenwick::from_values(&values);
        let mut grown = Fenwick::<i64>::zeroed(0);
        for &v in &values {
            grown.push(v);
        }
        for i in 0..values.len() {
            assert_eq!(bulk.prefix(i), grown.prefix(i), "prefix({})", i);
        }
    }
}
