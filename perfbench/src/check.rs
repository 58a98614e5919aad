//! The correctness checks every run applies. A violation is an `Err` with a
//! description; the run fails on the first one.

use std::collections::HashMap;

use psnap_serve::ServiceStats;

use crate::gen::decode;

/// Every value of a scan belongs to the component at its position (or is
/// the initial value). Over the wire this catches misattributed replies.
pub fn components_match(requested: &[usize], values: &[u64]) -> Result<(), String> {
    if requested.len() != values.len() {
        return Err(format!(
            "scan of {} components returned {} values",
            requested.len(),
            values.len()
        ));
    }
    for (&c, &v) in requested.iter().zip(values) {
        if let Some(w) = decode(v) {
            if w.component != c {
                return Err(format!(
                    "scan position for component {c} holds value {v:#x}, written to component {}",
                    w.component
                ));
            }
        }
    }
    Ok(())
}

/// Read-your-writes for one caller: a fresh scan never shows a component
/// older than the caller's last acknowledged write to it. A newer write by
/// another caller is fine; the caller's own older write or the initial
/// value is not.
#[derive(Debug)]
pub struct OwnWrites {
    caller: usize,
    last: HashMap<usize, u64>,
}

impl OwnWrites {
    pub fn new(caller: usize) -> OwnWrites {
        OwnWrites {
            caller,
            last: HashMap::new(),
        }
    }

    /// Records that the caller's write `seq` to `components` was applied.
    pub fn acked(&mut self, components: &[usize], seq: u64) {
        for &c in components {
            self.last.insert(c, seq);
        }
    }

    pub fn check_fresh(&self, requested: &[usize], values: &[u64]) -> Result<(), String> {
        for (&c, &v) in requested.iter().zip(values) {
            let Some(&mine) = self.last.get(&c) else {
                continue;
            };
            match decode(v) {
                None => {
                    return Err(format!(
                        "caller {} wrote component {c} (seq {mine}) but a fresh scan read the initial value",
                        self.caller
                    ))
                }
                Some(w) if w.caller == self.caller && w.seq < mine => {
                    return Err(format!(
                        "caller {} wrote component {c} as seq {mine} but a fresh scan read its older seq {}",
                        self.caller, w.seq
                    ))
                }
                Some(_) => {}
            }
        }
        Ok(())
    }
}

/// With one writer, each component's sequence number never goes backwards
/// from one scan to the next.
#[derive(Debug)]
pub struct Monotone {
    /// `seq + 1` of the newest write seen per component; 0 for none yet.
    seen: Vec<u64>,
}

impl Monotone {
    pub fn new(m: usize) -> Monotone {
        Monotone { seen: vec![0; m] }
    }

    pub fn check(&mut self, requested: &[usize], values: &[u64]) -> Result<(), String> {
        for (&c, &v) in requested.iter().zip(values) {
            let now = decode(v).map_or(0, |w| w.seq + 1);
            let before = self.seen[c];
            if now < before {
                return Err(format!(
                    "component {c} went backwards: a scan saw write {} after an earlier scan saw write {}",
                    now as i64 - 1,
                    before - 1
                ));
            }
            self.seen[c] = now;
        }
        Ok(())
    }
}

/// Theorem 3's budget for a Figure 3 scan of `r` components.
pub fn scan_read_bound(r: usize) -> u64 {
    ((2 * r + 3) * r + 8) as u64
}

pub fn scan_reads_within_bound(r: usize, reads: u64) -> Result<(), String> {
    let bound = scan_read_bound(r);
    if reads > bound {
        return Err(format!(
            "a scan of r = {r} components took {reads} reads, over the (2r+3)r+8 = {bound} bound"
        ));
    }
    Ok(())
}

/// The service's counters partition exactly once it is quiet.
pub fn service_partitions(s: &ServiceStats) -> Result<(), String> {
    if s.writes_submitted != s.writes_applied + s.writes_coalesced_away {
        return Err(format!(
            "writes_submitted {} != writes_applied {} + writes_coalesced_away {}",
            s.writes_submitted, s.writes_applied, s.writes_coalesced_away
        ));
    }
    if s.submits_ok != s.submits_resolved {
        return Err(format!(
            "submits_ok {} != submits_resolved {}",
            s.submits_ok, s.submits_resolved
        ));
    }
    let served =
        s.scans_served_backing + s.scans_served_cache + s.scans_served_mv + s.scans_served_empty;
    if s.scans_ok != served {
        return Err(format!(
            "scans_ok {} != scans served by backing, cache, mv and empty paths ({served})",
            s.scans_ok
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::encode;

    #[test]
    fn component_check_fires_on_another_components_value() {
        let ok = [encode(3, 0, 1), 0];
        assert!(components_match(&[3, 4], &ok).is_ok());
        let swapped = [encode(4, 0, 1), encode(3, 0, 1)];
        assert!(components_match(&[3, 4], &swapped).is_err());
        assert!(components_match(&[3, 4], &[0]).is_err());
        // A nonzero value that decodes to no component is foreign too.
        assert!(components_match(&[3], &[7]).is_err());
    }

    #[test]
    fn read_your_writes_fires_on_an_older_own_write() {
        let mut own = OwnWrites::new(1);
        own.acked(&[5], 9);
        assert!(own.check_fresh(&[5], &[encode(5, 1, 9)]).is_ok());
        // Another caller's write may land after ours.
        assert!(own.check_fresh(&[5], &[encode(5, 0, 2)]).is_ok());
        assert!(own.check_fresh(&[5], &[encode(5, 1, 8)]).is_err());
        assert!(own.check_fresh(&[5], &[0]).is_err());
        // Components the caller never wrote are unconstrained.
        assert!(own.check_fresh(&[6], &[0]).is_ok());
    }

    #[test]
    fn monotone_check_fires_when_a_component_goes_back() {
        let mut mono = Monotone::new(8);
        assert!(mono.check(&[2], &[0]).is_ok());
        assert!(mono.check(&[2], &[encode(2, 0, 4)]).is_ok());
        assert!(mono.check(&[2], &[encode(2, 0, 4)]).is_ok());
        assert!(mono.check(&[2], &[encode(2, 0, 3)]).is_err());
        let mut mono = Monotone::new(8);
        assert!(mono.check(&[2], &[encode(2, 0, 0)]).is_ok());
        assert!(mono.check(&[2], &[0]).is_err());
    }

    #[test]
    fn read_bound_check_fires_past_theorem_3() {
        assert_eq!(scan_read_bound(16), 35 * 16 + 8);
        assert!(scan_reads_within_bound(16, 568).is_ok());
        assert!(scan_reads_within_bound(16, 569).is_err());
    }

    #[test]
    fn partition_check_fires_on_each_broken_partition() {
        let good = ServiceStats {
            submits_ok: 3,
            submits_resolved: 3,
            writes_submitted: 5,
            writes_applied: 4,
            writes_coalesced_away: 1,
            scans_ok: 4,
            scans_served_backing: 1,
            scans_served_cache: 1,
            scans_served_mv: 1,
            scans_served_empty: 1,
            ..ServiceStats::default()
        };
        assert!(service_partitions(&good).is_ok());
        for broken in [
            ServiceStats {
                writes_applied: 3,
                ..good
            },
            ServiceStats {
                submits_resolved: 2,
                ..good
            },
            ServiceStats {
                scans_served_mv: 0,
                ..good
            },
        ] {
            assert!(service_partitions(&broken).is_err());
        }
    }
}
