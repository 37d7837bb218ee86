//! Disk-backed artifact persistence: warm-starting a fresh process from an
//! earlier run's proof state (DESIGN.md §6g).
//!
//! A [`DiskStore`] mirrors the two session caches into one file,
//! `DIR/store.pack`: a header, then length-prefixed sealed records.
//!
//! ```text
//! b"ACRSPAK1" + two 16-byte scheme probes      header
//! record*     u64 LE length + one sealed block:
//!   b"ACRSART1" + (phase, fn, input digest, artifact) + digest128
//!               one ArtifactStore entry
//!   b"ACRSRPL1" + sorted replay digests + digest128
//!               the ReplayCache's successful validations (one record)
//! ```
//!
//! # Integrity and trust model
//!
//! Every record is sealed with [`ir::codec::seal`] (magic + payload +
//! [`ir::codec::digest128_bytes`]); a corrupt, truncated, or foreign
//! record fails a check and is **rejected individually**, and a torn tail
//! counts as one rejection — the pipeline recomputes what was lost, so
//! damage degrades warm starts, never verdicts. The store is part of the
//! *local trusted base* (like the in-memory session caches it mirrors):
//! the integrity digest defends against accidental corruption, not an
//! adversary with write access to the cache directory — adversarial
//! transport is what proof certificates (`kernel::cert`) are for, and
//! those revalidate every node.
//!
//! Version skew is safe by construction, twice over. First, the header
//! records probes of the digest schemes (the codec's FNV construction and
//! the standard library's `DefaultHasher`, whose fixed SipHash key may
//! change between Rust releases); a mismatch makes the whole pack load as
//! a cold start with a diagnostic, and the next save replaces it. Second,
//! even if the probe missed, a stale entry's *key* digest could never
//! equal one freshly computed under a different scheme — lookups simply
//! miss and recompute, and stale replay digests never match a real
//! validation's digest, so a preload can only skip re-runs of validations
//! that actually succeeded.
//!
//! # Concurrency
//!
//! A save re-reads the pack, keeps every intact record byte for byte,
//! appends only the entries it lacks, merges the replay digests into one
//! record, and renames a uniquely named, fsync'd temporary over the pack
//! — atomic on POSIX, so readers only ever see a complete pack, and each
//! writer's pack holds everything that was on disk when it read. Racing
//! writers settle last-writer-wins; an entry lost to the race is
//! recomputed by a later run. A save with nothing new writes nothing.

use std::collections::HashSet;
use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ir::codec::{
    decode_from_slice, digest128_bytes, encode_to_vec, seal, unseal, Codec, DecodeError, Decoder,
    Encoder,
};
use ir::diag::{Diag, DiagKind};
use ir::sched::{plan_workers, run_dag};
use kernel::{ReplayCache, Thm};
use monadic::MonadicFn;

use crate::phase::{AbsintFn, AdaptedFn, Artifact, ArtifactStore, PhaseArtifact, PHASES};

/// Magic + version of the pack header.
const PACK_MAGIC: &[u8; 8] = b"ACRSPAK1";
/// Magic + version of one artifact entry record.
const ART_MAGIC: &[u8; 8] = b"ACRSART1";
/// Magic + version of the replay-digest record.
const RPL_MAGIC: &[u8; 8] = b"ACRSRPL1";

// ---- artifact codecs --------------------------------------------------------

impl Codec for AdaptedFn {
    fn encode(&self, e: &mut Encoder) {
        self.body.encode(e);
        self.thm.encode(e);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(AdaptedFn {
            body: Codec::decode(d)?,
            thm: Thm::decode(d)?,
        })
    }
}

impl Codec for AbsintFn {
    fn encode(&self, e: &mut Encoder) {
        self.report.encode(e);
        self.thms.encode(e);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(AbsintFn {
            report: Codec::decode(d)?,
            thms: Vec::decode(d)?,
        })
    }
}

impl Codec for Artifact {
    fn encode(&self, e: &mut Encoder) {
        match self {
            Artifact::L1 { fun, thm } => {
                e.u8(0);
                fun.encode(e);
                thm.encode(e);
            }
            Artifact::L2Fn(fun) => {
                e.u8(1);
                fun.encode(e);
            }
            Artifact::L2Thm(thm) => {
                e.u8(2);
                thm.encode(e);
            }
            Artifact::Hl { fun, thm } => {
                e.u8(3);
                fun.encode(e);
                thm.encode(e);
            }
            Artifact::Wa { fun, thm } => {
                e.u8(4);
                fun.encode(e);
                thm.encode(e);
            }
            Artifact::Adapt(a) => {
                e.u8(5);
                a.encode(e);
            }
            Artifact::Absint(a) => {
                e.u8(6);
                a.encode(e);
            }
        }
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(match d.u8()? {
            0 => Artifact::L1 {
                fun: MonadicFn::decode(d)?,
                thm: Thm::decode(d)?,
            },
            1 => Artifact::L2Fn(MonadicFn::decode(d)?),
            2 => Artifact::L2Thm(Thm::decode(d)?),
            3 => Artifact::Hl {
                fun: MonadicFn::decode(d)?,
                thm: Option::decode(d)?,
            },
            4 => Artifact::Wa {
                fun: MonadicFn::decode(d)?,
                thm: Option::decode(d)?,
            },
            5 => Artifact::Adapt(Option::decode(d)?),
            6 => Artifact::Absint(AbsintFn::decode(d)?),
            b => return Err(DecodeError(format!("invalid Artifact tag {b}"))),
        })
    }
}

// ---- scheme probes ----------------------------------------------------------

/// Probe of the `DefaultHasher`-based digest scheme used by the phase
/// input digests and the replay cache. `DefaultHasher::new()` is SipHash
/// with a fixed key — deterministic across processes of one Rust release,
/// but free to change between releases; this probe hashes a fixed
/// structured value (including an interned term, covering the
/// content-based `Symbol` hash) so any scheme change flips it.
fn hasher_probe() -> u128 {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    fn pass(seed: u64) -> u64 {
        let mut h = DefaultHasher::new();
        seed.hash(&mut h);
        0xACu64.hash(&mut h);
        "autocorres-store-probe".hash(&mut h);
        ir::expr::Expr::binop(
            ir::expr::BinOp::Add,
            ir::expr::Expr::var("store_probe"),
            ir::expr::Expr::u32(1),
        )
        .hash(&mut h);
        h.finish()
    }
    (u128::from(pass(0x9E37_79B9_7F4A_7C15)) << 64) | u128::from(pass(0xC2B2_AE3D_27D4_EB4F))
}

/// Probe of the codec's own FNV-based integrity digest.
fn codec_probe() -> u128 {
    digest128_bytes(b"autocorres-store-probe")
}

/// The pack header: magic + version, then both scheme probes.
fn header() -> Vec<u8> {
    let mut v = Vec::with_capacity(40);
    v.extend_from_slice(PACK_MAGIC);
    v.extend_from_slice(&hasher_probe().to_le_bytes());
    v.extend_from_slice(&codec_probe().to_le_bytes());
    v
}

// ---- the disk store ---------------------------------------------------------

/// What a [`DiskStore::load_into`] found.
#[derive(Clone, Debug, Default)]
pub struct LoadReport {
    /// Artifact entries accepted into the session store.
    pub artifacts: usize,
    /// Pack records rejected (corrupt, truncated, or foreign; a torn tail
    /// counts once) — each falls back to recomputation.
    pub rejected: usize,
    /// The whole pack was skipped because its header did not match this
    /// build's format/digest schemes.
    pub version_skew: bool,
    /// Non-fatal diagnostics (rejections, skew) for the caller to surface.
    pub warnings: Vec<Diag>,
}

/// A cache problem, reported without failing the run. The store caches
/// kernel-checked artifacts; `Lint` is the one non-fatal kind
/// (warm-start degradation never fails a run).
pub(crate) fn warning(dir: &Path, what: &str) -> Diag {
    let msg = format!("cache {}: {what}", dir.display());
    Diag::new(ir::diag::Phase::Kernel, DiagKind::Lint, msg)
}

/// A disk-backed mirror of the session caches. See the module docs.
pub struct DiskStore {
    dir: PathBuf,
}

/// Uniquifies temporary file names across every store of this process.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

impl DiskStore {
    /// Opens (creating if needed) a cache directory.
    ///
    /// # Errors
    ///
    /// Filesystem errors creating the directory.
    pub fn open(dir: &Path) -> io::Result<DiskStore> {
        std::fs::create_dir_all(dir)?;
        Ok(DiskStore {
            dir: dir.to_path_buf(),
        })
    }

    fn pack(&self) -> PathBuf {
        self.dir.join("store.pack")
    }

    /// Loads every valid record of the pack into the session caches.
    /// Never fails: a missing or unreadable pack starts cold, and anything
    /// invalid is counted in [`LoadReport::rejected`] and recomputed by the
    /// pipeline instead.
    pub fn load_into(&self, store: &ArtifactStore, replay: &ReplayCache) -> LoadReport {
        let mut rep = LoadReport::default();
        let bytes = match std::fs::read(self.pack()) {
            Ok(bytes) => bytes,
            // A fresh directory: the first save writes the pack.
            Err(e) if e.kind() == io::ErrorKind::NotFound => return rep,
            Err(e) => {
                let msg = format!("store.pack unreadable ({e}); starting cold");
                rep.warnings.push(warning(&self.dir, &msg));
                return rep;
            }
        };
        let Some(body) = bytes.strip_prefix(header().as_slice()) else {
            rep.version_skew = true;
            rep.warnings.push(warning(
                &self.dir,
                "format or digest-scheme mismatch (written by a different build?); starting cold",
            ));
            return rep;
        };
        let (records, torn) = split_records(body);
        rep.rejected = usize::from(torn);
        for decoded in decode_all(&records) {
            match decoded {
                Some(Loaded::Entry(phase, name, artifact)) => {
                    store.preload(phase, &name, artifact);
                    rep.artifacts += 1;
                }
                Some(Loaded::Replay(digests)) => replay.preload(&digests),
                None => rep.rejected += 1,
            }
        }
        if rep.rejected > 0 {
            let s = if rep.rejected == 1 { "" } else { "s" };
            let msg = format!(
                "rejected {} corrupt or foreign record{s} (recomputing)",
                rep.rejected
            );
            rep.warnings.push(warning(&self.dir, &msg));
        }
        rep
    }

    /// Writes the session caches back into the pack: keeps every intact
    /// record already there byte for byte (so records a concurrent process
    /// wrote survive), appends the entries the pack lacks, and merges the
    /// replay digests into one record — through one temporary file, one
    /// fsync, and one rename. Writes nothing when the pack already holds
    /// every entry and digest.
    ///
    /// # Errors
    ///
    /// Filesystem errors; the pack on disk stays complete even on failure.
    pub fn save(&self, store: &ArtifactStore, replay: &ReplayCache) -> io::Result<()> {
        let old = std::fs::read(self.pack()).unwrap_or_default();
        let header = header();
        // A missing, unreadable, or foreign pack is replaced wholesale.
        let body = old.strip_prefix(header.as_slice());
        let (records, torn) = split_records(body.unwrap_or_default());
        let mut changed = body.is_none() || torn;
        let mut kept = Vec::with_capacity(records.len());
        let mut keys = HashSet::new();
        let mut digests = HashSet::new();
        for rec in records {
            match open_record(rec) {
                Ok(Record::Entry(key, _)) if !keys.contains(&key) => {
                    keys.insert(key);
                    kept.push(rec);
                }
                Ok(Record::Replay(ds)) => digests.extend(ds),
                // Corrupt, foreign, unknown-phase, and duplicate records.
                _ => changed = true,
            }
        }
        let mut fresh = store.entries();
        fresh.retain(|(key, _)| !keys.contains(key));
        let on_disk = digests.len();
        digests.extend(replay.export_digests());
        if !changed && fresh.is_empty() && digests.len() == on_disk {
            return Ok(());
        }
        let mut digests: Vec<u128> = digests.into_iter().collect();
        digests.sort_unstable();
        self.write_atomic(|w| {
            w.write_all(&header)?;
            for rec in kept {
                frame(w, rec)?;
            }
            for ((phase, name, _), artifact) in &fresh {
                frame(w, &encode_entry(phase, name, artifact))?;
            }
            frame(w, &seal(RPL_MAGIC, &encode_to_vec(&digests)))
        })
    }

    /// Streams the new pack into a unique temporary sibling, then renames
    /// it over the pack — readers never see a partial pack; racing writers
    /// settle on last-writer-wins.
    fn write_atomic<F>(&self, write: F) -> io::Result<()>
    where
        F: FnOnce(&mut io::BufWriter<File>) -> io::Result<()>,
    {
        let pack = self.pack();
        let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = pack.with_extension(format!("{}-{seq}.tmp", std::process::id()));
        let res = File::create(&tmp)
            .and_then(|f| {
                let mut w = io::BufWriter::new(f);
                write(&mut w)?;
                w.into_inner()
                    .map_err(io::IntoInnerError::into_error)?
                    .sync_all()
            })
            .and_then(|()| std::fs::rename(&tmp, &pack));
        if res.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        res
    }
}

/// Writes one record with its u64 little-endian length prefix.
fn frame(w: &mut impl Write, rec: &[u8]) -> io::Result<()> {
    w.write_all(&(rec.len() as u64).to_le_bytes())?;
    w.write_all(rec)
}

/// Splits the records after the pack header. A final record whose length
/// prefix overruns the file — a torn tail — is dropped and reported.
fn split_records(mut body: &[u8]) -> (Vec<&[u8]>, bool) {
    let mut records = Vec::new();
    while !body.is_empty() {
        let Some((len, rest)) = body.split_first_chunk::<8>() else {
            return (records, true);
        };
        let len = usize::try_from(u64::from_le_bytes(*len)).unwrap_or(usize::MAX);
        if len > rest.len() {
            return (records, true);
        }
        let (rec, next) = rest.split_at(len);
        records.push(rec);
        body = next;
    }
    (records, false)
}

/// A record with its seal checked and its magic told apart.
enum Record<'a> {
    /// An artifact entry: its store key, and a decoder positioned at the
    /// artifact itself.
    Entry((&'static str, String, u128), Decoder<'a>),
    /// The replay-cache digests.
    Replay(Vec<u128>),
}

fn open_record(rec: &[u8]) -> Result<Record<'_>, DecodeError> {
    if let Ok(payload) = unseal(RPL_MAGIC, rec) {
        return decode_from_slice(payload).map(Record::Replay);
    }
    let payload = unseal(ART_MAGIC, rec).map_err(|e| DecodeError(format!("{e:?}")))?;
    let mut d = Decoder::new(payload);
    // The key's phase component is `&'static str`; an entry naming an
    // unknown phase (a future format, a renamed phase) is rejected.
    let phase_name = d.str()?;
    let phase = PHASES
        .iter()
        .map(|p| p.name())
        .find(|n| *n == phase_name)
        .ok_or_else(|| DecodeError(format!("unknown phase {phase_name:?}")))?;
    Ok(Record::Entry((phase, d.str()?, d.u128_fixed()?), d))
}

/// A fully decoded record.
enum Loaded {
    Entry(&'static str, String, Arc<PhaseArtifact>),
    Replay(Vec<u128>),
}

fn decode_record(rec: &[u8]) -> Result<Loaded, DecodeError> {
    match open_record(rec)? {
        Record::Entry((phase, name, digest), mut d) => {
            let value = Artifact::decode(&mut d)?;
            if d.remaining() != 0 {
                return Err(DecodeError(format!("{} trailing bytes", d.remaining())));
            }
            let artifact = Arc::new(PhaseArtifact { digest, value });
            Ok(Loaded::Entry(phase, name, artifact))
        }
        Record::Replay(digests) => Ok(Loaded::Replay(digests)),
    }
}

/// Most workers record decode fans out to, whatever the host offers.
const DECODE_MAX_WORKERS: usize = 8;

/// Estimated cost of decoding one record, in [`plan_workers`] units.
/// Chosen so a pack of 32 or more records fans out on a multi-CPU host,
/// while a handful of records decodes inline.
const DECODE_ENTRY_COST: u64 = 125;

/// Decodes every record on the shared [`run_dag`] pool: decoding is pure
/// per record (the interner is sharded and thread-safe), so results come
/// back in pack order and the caller's accept/reject walk stays
/// deterministic. The width comes from the record count, not from
/// [`crate::Options::workers`]: on a seL4-scale store (~3 900 records,
/// ~270 k proof nodes) a sequential decode dominated warm start even for
/// a sequential run. A decode error or a panic rejects only its own
/// record — load never fails, it degrades.
fn decode_all(records: &[&[u8]]) -> Vec<Option<Loaded>> {
    let cost = records.len() as u64 * DECODE_ENTRY_COST;
    let workers = plan_workers(DECODE_MAX_WORKERS, cost, false);
    let deps = vec![Vec::new(); records.len()];
    let (decoded, _) = run_dag(records.len(), &deps, workers, |i, _| {
        std::panic::catch_unwind(|| decode_record(records[i]).ok())
            .ok()
            .flatten()
    });
    decoded
}

fn encode_entry(phase: &str, name: &str, artifact: &PhaseArtifact) -> Vec<u8> {
    let mut e = Encoder::new();
    e.str(phase);
    e.str(name);
    e.u128_fixed(artifact.digest);
    artifact.value.encode(&mut e);
    seal(ART_MAGIC, &e.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Options, Session};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "acr-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    const SRC: &str = "unsigned inc(unsigned x) { if (x < 100u) { return x + 1u; } return x; }";

    fn opts(dir: &Path) -> Options {
        Options {
            l2_trials: 2,
            cache_dir: Some(dir.to_path_buf()),
            ..Options::default()
        }
    }

    /// Byte ranges of the pack's records (each after its length prefix).
    fn record_ranges(pack: &[u8]) -> Vec<std::ops::Range<usize>> {
        let (records, torn) = split_records(&pack[header().len()..]);
        assert!(!torn, "a freshly written pack has no torn tail");
        records
            .iter()
            .map(|r| {
                let start = r.as_ptr() as usize - pack.as_ptr() as usize;
                start..start + r.len()
            })
            .collect()
    }

    /// Appends one length-prefixed record to the pack file.
    fn append_record(dir: &Path, rec: &[u8]) {
        let mut pack = std::fs::read(dir.join("store.pack")).unwrap();
        pack.extend_from_slice(&(rec.len() as u64).to_le_bytes());
        pack.extend_from_slice(rec);
        std::fs::write(dir.join("store.pack"), &pack).unwrap();
    }

    #[test]
    fn roundtrip_through_disk_warm_starts() {
        let dir = tmpdir("rt");
        let out1 = {
            let sess = Session::new(opts(&dir));
            assert_eq!(sess.load_report().artifacts, 0, "first run is cold");
            let out = sess.translate(SRC).expect("translate");
            assert_eq!(out.stats.dirty_fns, 1, "everything recomputed cold");
            out
        };
        let files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(files, ["store.pack"], "one file per cache directory");
        // A *fresh* session (fresh process stand-in) over the same dir.
        let sess = Session::new(opts(&dir));
        assert!(sess.load_report().artifacts > 0, "artifacts loaded");
        assert_eq!(sess.load_report().rejected, 0);
        let out2 = sess.translate(SRC).expect("translate warm");
        assert_eq!(out2.stats.dirty_fns, 0, "warm start recomputes nothing");
        assert_eq!(out2.stats.cached_nodes, PHASES.len() * out2.wa.fns.len());
        assert_eq!(
            out1.wa.function("inc").unwrap().to_string(),
            out2.wa.function("inc").unwrap().to_string()
        );
        assert_eq!(
            out1.stats.deterministic_summary(),
            out2.stats.deterministic_summary()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_save_with_nothing_new_writes_nothing() {
        use std::os::unix::fs::MetadataExt as _;
        let dir = tmpdir("nowrite");
        {
            let sess = Session::new(opts(&dir));
            let out = sess.translate(SRC).expect("translate");
            sess.check_all_report(&out, 1).expect("check");
        }
        let pack = dir.join("store.pack");
        let (before, meta) = (
            std::fs::read(&pack).unwrap(),
            std::fs::metadata(&pack).unwrap(),
        );
        let sess = Session::new(opts(&dir));
        let out = sess.translate(SRC).expect("translate warm");
        sess.check_all_report(&out, 1).expect("check warm");
        let after = std::fs::metadata(&pack).unwrap();
        assert_eq!(std::fs::read(&pack).unwrap(), before);
        assert_eq!(
            (after.ino(), after.modified().unwrap()),
            (meta.ino(), meta.modified().unwrap())
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_are_rejected_individually() {
        let dir = tmpdir("corrupt");
        {
            let sess = Session::new(opts(&dir));
            sess.translate(SRC).expect("translate");
        }
        // Flip one byte in the middle of every record in turn (the replay
        // record included): each load must reject it and still succeed.
        let clean = {
            let sess = Session::new(opts(&dir));
            sess.translate(SRC)
                .expect("translate")
                .wa
                .function("inc")
                .unwrap()
                .to_string()
        };
        let path = dir.join("store.pack");
        let orig = std::fs::read(&path).unwrap();
        for range in record_ranges(&orig) {
            let mut bad = orig.clone();
            bad[(range.start + range.end) / 2] ^= 0x01;
            std::fs::write(&path, &bad).unwrap();
            let sess = Session::new(opts(&dir));
            assert!(sess.load_report().rejected >= 1, "record {range:?}");
            let out = sess.translate(SRC).expect("translate survives corruption");
            assert_eq!(out.wa.function("inc").unwrap().to_string(), clean);
            std::fs::write(&path, &orig).unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_skew_and_garbage_degrade_to_cold_start() {
        let dir = tmpdir("skew");
        {
            let sess = Session::new(opts(&dir));
            sess.translate(SRC).expect("translate");
        }
        // Foreign + empty records in the pack: rejected, not fatal.
        append_record(&dir, b"not an artifact");
        append_record(&dir, b"");
        {
            let sess = Session::new(opts(&dir));
            assert_eq!(sess.load_report().rejected, 2);
            assert!(sess.load_report().artifacts > 0);
            let out = sess.translate(SRC).expect("translate");
            assert_eq!(out.stats.dirty_fns, 0);
        }
        // A version-skewed header: the whole pack loads cold, with a
        // warning, and the next save rewrites it.
        let mut pack = std::fs::read(dir.join("store.pack")).unwrap();
        pack[9] ^= 0xff;
        std::fs::write(dir.join("store.pack"), &pack).unwrap();
        {
            let sess = Session::new(opts(&dir));
            let rep = sess.load_report();
            assert!(rep.version_skew);
            assert_eq!(rep.artifacts, 0);
            assert!(!rep.warnings.is_empty());
            let out = sess.translate(SRC).expect("translate cold");
            assert_eq!(out.stats.cached_nodes, 0);
            assert!(out.stats.dirty_fns > 0);
        }
        // The save above healed the header; loads are warm again.
        let sess = Session::new(opts(&dir));
        assert!(!sess.load_report().version_skew);
        assert!(sess.load_report().artifacts > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pooled_decode_rejects_only_the_bad_entries() {
        // Enough records that `decode_all` plans a pool on a multi-CPU
        // host: a corrupt entry and a torn tail must each cost exactly
        // one rejection, never the load.
        let src: String = (0..8)
            .map(|i| format!("unsigned f{i}(unsigned x) {{ return x + {i}u; }}\n"))
            .collect();
        let dir = tmpdir("pooled");
        let clean = {
            let sess = Session::new(opts(&dir));
            let out = sess.translate(&src).expect("translate");
            out.wa.function("f3").unwrap().to_string()
        };
        let path = dir.join("store.pack");
        let mut pack = std::fs::read(&path).unwrap();
        let records = record_ranges(&pack);
        let cost = records.len() as u64 * DECODE_ENTRY_COST;
        let planned = plan_workers(DECODE_MAX_WORKERS, cost, false);
        assert!(
            planned >= ir::sched::host_cpus().min(2),
            "decode planned inline"
        );
        // Entries come first, sorted by key; the replay record is last.
        let bad = &records[5];
        pack[(bad.start + bad.end) / 2] ^= 0x01;
        pack.extend_from_slice(&[0xAC; 3]);
        std::fs::write(&path, &pack).unwrap();
        let sess = Session::new(opts(&dir));
        assert_eq!(sess.load_report().rejected, 2);
        assert_eq!(sess.load_report().artifacts, records.len() - 2);
        let out = sess.translate(&src).expect("translate survives corruption");
        assert_eq!(out.wa.function("f3").unwrap().to_string(), clean);
        assert_eq!(out.stats.dirty_fns, 1, "only the corrupt entry recomputes");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_phase_entries_are_rejected() {
        let dir = tmpdir("phase");
        {
            let sess = Session::new(opts(&dir));
            sess.translate(SRC).expect("translate");
        }
        // A self-consistent record (valid magic + digest) naming a phase
        // this build does not know: must be rejected by name, not trusted.
        let mut e = Encoder::new();
        e.str("l9");
        e.str("inc");
        e.u128_fixed(42);
        Artifact::L2Fn(MonadicFn {
            name: "inc".into(),
            params: vec![],
            ret_ty: ir::ty::Ty::Unit,
            frame: None,
            body: monadic::Prog::Fail,
        })
        .encode(&mut e);
        append_record(&dir, &seal(ART_MAGIC, &e.finish()));
        let sess = Session::new(opts(&dir));
        assert_eq!(sess.load_report().rejected, 1);
        assert!(sess.translate(SRC).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
