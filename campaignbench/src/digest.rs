//! Output digests: FNV-1a (64-bit) over the bytes of a campaign's
//! `checkpoint.json` and `summary.json`, and the table of digests
//! recorded for chosen seeds (`digests.json` in this package).

use popele_lab::sweep::json::Json;

/// A run's output digests: (file relative to the run directory, digest).
pub type Digests = Vec<(String, String)>;

/// The recorded digest table, compiled in.
const RECORDED: &str = include_str!("../digests.json");

/// FNV-1a 64-bit hash of `bytes`, as 16 lowercase hex digits.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// The digests recorded for `workload` at `seed`, as (output file
/// relative to the run directory, digest) pairs; `None` when the seed
/// was not recorded.
///
/// # Panics
///
/// Panics when the compiled-in table is not valid JSON.
#[must_use]
pub fn recorded(workload: &str, seed: u64) -> Option<Digests> {
    let table = Json::parse(RECORDED).expect("digests.json is valid JSON");
    let Json::Obj(files) = table.get(workload)?.get(&seed.to_string())? else {
        return None;
    };
    files
        .iter()
        .map(|(file, digest)| Some((file.clone(), digest.as_str()?.to_string())))
        .collect()
}

/// Renders a digest table: workload → seed → (file, digest) pairs.
#[must_use]
pub fn render_table(entries: &[(String, Vec<(u64, Digests)>)]) -> String {
    let mut members = vec![("algorithm".to_string(), Json::Str("fnv1a64".into()))];
    for (workload, seeds) in entries {
        let seeds = seeds
            .iter()
            .map(|(seed, files)| {
                let files = files
                    .iter()
                    .map(|(file, digest)| (file.clone(), Json::Str(digest.clone())))
                    .collect();
                (seed.to_string(), Json::Obj(files))
            })
            .collect();
        members.push((workload.clone(), Json::Obj(seeds)));
    }
    Json::Obj(members).render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), "cbf29ce484222325");
        assert_eq!(fnv1a64(b"a"), "af63dc4c8601ec8c");
        assert_eq!(fnv1a64(b"foobar"), "85944171f73967e8");
    }

    #[test]
    fn recorded_table_parses_and_names_known_workloads() {
        let table = Json::parse(RECORDED).unwrap();
        assert_eq!(
            table.get("algorithm").and_then(Json::as_str),
            Some("fnv1a64")
        );
        let Json::Obj(members) = &table else {
            panic!("digest table is not an object")
        };
        for (key, _) in members.iter().filter(|(k, _)| k != "algorithm") {
            let workload = crate::workloads::Workload::parse(key).expect("known workload");
            assert!(workload.digest_gated(), "{key} has no digest gate");
        }
        assert_eq!(recorded("no-such-workload", 0), None);
    }

    #[test]
    fn rendered_tables_read_back() {
        let text = render_table(&[(
            "sweep-lazy".into(),
            vec![(7, vec![("a/checkpoint.json".into(), "00ff".into())])],
        )]);
        let table = Json::parse(&text).unwrap();
        let digest = table
            .get("sweep-lazy")
            .and_then(|w| w.get("7"))
            .and_then(|s| s.get("a/checkpoint.json"))
            .and_then(Json::as_str);
        assert_eq!(digest, Some("00ff"));
    }
}
