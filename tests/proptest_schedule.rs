//! Property-based scheduling: legality and coverage for arbitrary shapes,
//! plus the earliest-start invariant of Fig. 20.

use systolic::partition::GsetSchedule;
use systolic::transform::{GGraph, GenericGGraph};
use systolic_util::Checker;

#[test]
fn linear_schedules_legal() {
    Checker::new("linear schedules legal", 64).run(|rng| {
        let n = 2 + rng.gen_usize(26); // 2..=27
        let m = 1 + rng.gen_usize(11); // 1..=11
        let s = GsetSchedule::linear(n, m);
        assert_eq!(s.total_gnodes(), n * (n + 1));
        s.verify_legal().map_err(|e| format!("n={n} m={m}: {e}"))?;
        // No G-set exceeds the array size.
        for e in s.entries() {
            assert!(e.members.len() <= m, "n={n} m={m}");
        }
        Ok(())
    });
}

#[test]
fn grid_schedules_legal() {
    Checker::new("grid schedules legal", 64).run(|rng| {
        let n = 2 + rng.gen_usize(22); // 2..=23
        let s = 1 + rng.gen_usize(5); // 1..=5
        let sched = GsetSchedule::grid(n, s);
        assert_eq!(sched.total_gnodes(), n * (n + 1));
        sched
            .verify_legal()
            .map_err(|e| format!("n={n} s={s}: {e}"))?;
        for e in sched.entries() {
            assert!(e.members.len() <= s * s, "n={n} s={s}");
        }
        Ok(())
    });
}

#[test]
fn elimination_schedules_legal() {
    // The LU and Faddeev trapezoids compile from the same linear and grid
    // schedules as the closure parallelogram.
    Checker::new("elimination schedules legal", 64).run(|rng| {
        let n = 2 + rng.gen_usize(14); // 2..=15
        let m = 1 + rng.gen_usize(9); // 1..=9
        let s = 1 + rng.gen_usize(4); // 1..=4
        for (algo, gg) in [
            ("lu", GenericGGraph::lu(n)),
            ("faddeev", GenericGGraph::faddeev(n)),
        ] {
            for sched in [
                GsetSchedule::linear_of(&gg, m),
                GsetSchedule::grid_of(&gg, s),
            ] {
                let tag = format!("{algo} n={n} m={m} s={s} cells={}", sched.cells);
                assert_eq!(sched.total_gnodes(), gg.gnode_count(), "{tag}");
                sched.verify_legal().map_err(|e| format!("{tag}: {e}"))?;
                for e in sched.entries() {
                    assert!(e.members.len() <= sched.cells, "{tag}");
                }
            }
        }
        Ok(())
    });
}

#[test]
fn earliest_start_tags_respect_dependences() {
    Checker::new("earliest-start respects dependences", 64).run(|rng| {
        let n = 2 + rng.gen_usize(38); // 2..=39
        let gg = GGraph::new(n);
        for id in gg.iter() {
            let t = gg.earliest_start(id);
            if let Some(c) = gg.column_dep(id) {
                assert!(gg.earliest_start(c) < t, "n={n} column dep of {id:?}");
            }
            if let Some(p) = gg.pivot_dep(id) {
                assert!(gg.earliest_start(p) < t, "n={n} pivot dep of {id:?}");
            }
        }
        Ok(())
    });
}

#[test]
fn h_coordinates_roundtrip() {
    Checker::new("h-coordinates roundtrip", 64).run(|rng| {
        let n = 2 + rng.gen_usize(38); // 2..=39
        let gg = GGraph::new(n);
        for id in gg.iter() {
            let h = gg.h_of(id);
            assert_eq!(gg.at_h(id.k, h), Some(id), "n={n}");
        }
        // Outside the parallelogram: nothing.
        assert_eq!(gg.at_h(0, n + 1), None);
        assert_eq!(gg.at_h(n - 1, n - 2), None);
        Ok(())
    });
}
