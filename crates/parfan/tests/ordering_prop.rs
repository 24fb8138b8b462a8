//! Property test: for arbitrary inputs, worker counts, and chunk sizes,
//! parfan's output is exactly the sequential map's — ordering included.

use parfan::{map_cfg, Config};
use proptest::prelude::*;

proptest! {
    #[test]
    fn matches_sequential_map(
        items in proptest::collection::vec(any::<u32>(), 0..160),
        jobs in 1usize..10,
        chunk in 0usize..20,
    ) {
        // A job whose output depends on both index and value, so any
        // permutation or index mixup changes the result.
        let f = |i: usize, x: u32| -> u64 {
            (u64::from(x) ^ 0x5EED_F00D).wrapping_mul(2 * i as u64 + 1)
        };
        let expected: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, &x)| f(i, x))
            .collect();
        let got = map_cfg(
            Config { jobs, chunk },
            &items,
            |i, _| format!("#{i}"),
            |i, &x| f(i, x),
        );
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn parallel_equals_serial_for_same_input(
        items in proptest::collection::vec(any::<u64>(), 0..120),
        jobs in 2usize..9,
    ) {
        let f = |i: usize, x: u64| x.rotate_left((i % 64) as u32) ^ i as u64;
        let serial = map_cfg(
            Config { jobs: 1, chunk: 0 },
            &items,
            |i, _| format!("#{i}"),
            |i, &x| f(i, x),
        );
        let parallel = map_cfg(
            Config { jobs, chunk: 0 },
            &items,
            |i, _| format!("#{i}"),
            |i, &x| f(i, x),
        );
        prop_assert_eq!(serial, parallel);
    }
}
