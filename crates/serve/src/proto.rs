//! The binary predict protocol: length-prefixed little-endian frames.
//!
//! JSON needs a parser the container cannot download, so the wire format is
//! a deliberately tiny binary layout — every field length-prefixed, every
//! count validated against a cap before it reaches an allocator (the same
//! discipline as `lmmir_tensor::io`).
//!
//! ### Request (`POST /predict` body)
//!
//! ```text
//! magic "LMIQ" | u8 version | u16 model_len, model | u16 design_len, design
//! | u32 width | u32 height | u32 dbu_per_um | f32 power[width*height]
//! | u8 has_netlist | (u32 netlist_len, netlist SPICE text)
//! | [u16 window_count | f32 window[width*height] × count]     (optional)
//! ```
//!
//! The per-window block carries a dynamic (PowerNet-style) workload: one
//! toggle-weighted power map per time window, appended **after** the
//! netlist field and encoded only when present. The decoder branches on
//! remaining bytes, so a VERSION 1 static frame (which ends at the
//! netlist) still parses byte-for-byte — old clients need no changes. A
//! dynamic request still fills `power` with the windows' envelope, so the
//! same design can be routed to a static model unchanged.
//!
//! ### Response
//!
//! ```text
//! magic "LMIS" | u8 version | u8 status
//! status 0: u8 cache_hit | u32 width | u32 height | f32 threshold
//!           | f32 map[width*height] | u8 mask[width*height]
//! status 1: u32 msg_len, msg
//! ```

use crate::ServeError;
use lmmir_features::WordHasher;
use lmmir_pdn::{Case, DynamicCase, PowerMap, MAX_WINDOWS};
use lmmir_spice::Netlist;

const REQUEST_MAGIC: &[u8; 4] = b"LMIQ";
const RESPONSE_MAGIC: &[u8; 4] = b"LMIS";
const VERSION: u8 = 1;

/// Caps on attacker-controlled lengths.
const MAX_NAME: usize = 256;
/// Longest raster edge accepted (the paper's largest case is 870 px).
pub const MAX_EDGE: u32 = 8192;
/// Most pixels accepted per request (16M ≈ a 4096² design).
pub const MAX_PIXELS: u64 = 1 << 24;
/// Longest SPICE netlist accepted (64 MiB).
pub const MAX_NETLIST: usize = 64 << 20;
/// Largest accepted database-unit scale (the contest uses 2000 dbu/µm).
pub const MAX_DBU_PER_UM: u32 = 1_000_000;
/// Most pixels accepted *summed over all per-window maps* of one request —
/// the same budget a static map gets, so a dynamic request cannot ask the
/// allocator for more than any static one could.
pub const MAX_WINDOW_PIXELS: u64 = MAX_PIXELS;

/// Default database units per µm when a caller builds a request without a
/// technology in hand (`lmmir_pdn::PdnTech::standard()` uses the same).
pub const DEFAULT_DBU_PER_UM: u32 = 2000;

/// One IR-drop query: a design's power map plus (optionally) its netlist.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictRequest {
    /// Registry name of the model to use (empty = server default).
    pub model: String,
    /// Caller-chosen design identifier (informational; not hashed).
    pub design: String,
    /// Power-map width in pixels (µm).
    pub width: u32,
    /// Power-map height in pixels (µm).
    pub height: u32,
    /// Database units per µm the netlist coordinates are expressed in.
    pub dbu_per_um: u32,
    /// Row-major per-pixel drawn current (A), `width × height` values.
    pub power: Vec<f32>,
    /// SPICE netlist text; required by models that consume netlist-derived
    /// feature channels or the point-cloud modality.
    pub netlist: Option<String>,
    /// Per-window toggle-weighted power maps (`width × height` values
    /// each), present only for dynamic (PowerNet-style) requests. When
    /// non-empty, `power` holds the windows' envelope so static models can
    /// still serve the design.
    pub windows: Vec<Vec<f32>>,
}

impl PredictRequest {
    /// Builds a request from in-memory design parts (the power map is
    /// narrowed to `f32`, the transport precision), assuming the contest's
    /// [`DEFAULT_DBU_PER_UM`] — set [`PredictRequest::dbu_per_um`] (or use
    /// [`PredictRequest::from_case`]) when the technology differs.
    #[must_use]
    pub fn from_parts(design: &str, power: &PowerMap, netlist: Option<&Netlist>) -> Self {
        PredictRequest {
            model: String::new(),
            design: design.to_string(),
            width: power.width() as u32,
            height: power.height() as u32,
            dbu_per_um: DEFAULT_DBU_PER_UM,
            power: power.data().iter().map(|&v| v as f32).collect(),
            netlist: netlist.map(Netlist::to_spice),
            windows: Vec::new(),
        }
    }

    /// Builds a request from a generated benchmark case, carrying the
    /// case's own technology scale.
    #[must_use]
    pub fn from_case(case: &Case) -> Self {
        let mut req = PredictRequest::from_parts(&case.spec.id, &case.power, Some(&case.netlist));
        req.dbu_per_um = u32::try_from(case.tech.dbu_per_um).unwrap_or(DEFAULT_DBU_PER_UM);
        req
    }

    /// Builds a dynamic request from a generated vector workload: `power`
    /// carries the envelope (so a static model can serve the same bytes),
    /// the netlist matches the envelope, and the per-window maps ride in
    /// [`PredictRequest::windows`].
    #[must_use]
    pub fn from_dynamic_case(dyn_case: &DynamicCase) -> Self {
        let mut req = PredictRequest::from_case(&dyn_case.case);
        req.windows = dyn_case
            .windows
            .iter()
            .map(|w| w.data().iter().map(|&v| v as f32).collect())
            .collect();
        req
    }

    /// The power map as the solver-precision type the feature pipeline
    /// consumes. This widening is exact, so every caller (server and
    /// offline reference alike) sees the identical map.
    #[must_use]
    pub fn power_map(&self) -> PowerMap {
        PowerMap::from_vec(
            self.width as usize,
            self.height as usize,
            self.power.iter().map(|&v| f64::from(v)).collect(),
        )
    }

    /// The per-window maps as solver-precision [`PowerMap`]s (exact `f32 →
    /// f64` widening, same as [`PredictRequest::power_map`]); empty for a
    /// static request.
    #[must_use]
    pub fn window_maps(&self) -> Vec<PowerMap> {
        self.windows
            .iter()
            .map(|w| {
                PowerMap::from_vec(
                    self.width as usize,
                    self.height as usize,
                    w.iter().map(|&v| f64::from(v)).collect(),
                )
            })
            .collect()
    }

    /// Content fingerprint of the design payload (dimensions, bit-exact
    /// power values, netlist text, window maps): the result-cache, dedup
    /// and shard key. The model and design names are *not* hashed: the
    /// cache keys on content per model separately, and renaming a design
    /// must not defeat it.
    ///
    /// Runs on the event-loop thread over the whole body, so it goes eight
    /// bytes per step ([`WordHasher`]). The keys live only in memory — no
    /// file or wire format holds one.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h = WordHasher::new();
        h.write_u64(u64::from(self.width));
        h.write_u64(u64::from(self.height));
        h.write_u64(u64::from(self.dbu_per_um));
        h.write_u64(self.power.len() as u64);
        h.write_f32s(&self.power);
        // Every variable-sized field goes behind its length (`+ 1` keeps
        // an empty netlist apart from an absent one).
        let netlist = self.netlist.as_deref().unwrap_or_default();
        h.write_u64(self.netlist.as_ref().map_or(0, |nl| nl.len() as u64 + 1));
        h.write(netlist.as_bytes());
        h.write_u64(self.windows.len() as u64);
        for window in &self.windows {
            h.write_u64(window.len() as u64);
            h.write_f32s(window);
        }
        h.finish()
    }

    /// Serializes to the wire format.
    ///
    /// # Panics
    ///
    /// Panics when a field exceeds the caps `decode` enforces (name over
    /// [`MAX_NAME`] bytes, netlist over [`MAX_NETLIST`]) — failing fast at
    /// the encoder beats a silently length-wrapped frame the server would
    /// reject with a misleading parse error.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        if let Some(nl) = &self.netlist {
            assert!(
                nl.len() <= MAX_NETLIST,
                "netlist of {} bytes exceeds protocol cap {MAX_NETLIST}",
                nl.len()
            );
        }
        if !self.windows.is_empty() {
            assert!(
                self.windows.len() <= MAX_WINDOWS,
                "{} windows exceed protocol cap {MAX_WINDOWS}",
                self.windows.len()
            );
            let pixels = self.power.len();
            assert!(
                self.windows.iter().all(|w| w.len() == pixels),
                "every window must carry width×height values"
            );
            assert!(
                (self.windows.len() * pixels) as u64 <= MAX_WINDOW_PIXELS,
                "window payload exceeds {MAX_WINDOW_PIXELS} total pixels"
            );
        }
        let mut out = Vec::with_capacity(32 + self.power.len() * 4);
        out.extend_from_slice(REQUEST_MAGIC);
        out.push(VERSION);
        put_str16(&mut out, &self.model);
        put_str16(&mut out, &self.design);
        out.extend_from_slice(&self.width.to_le_bytes());
        out.extend_from_slice(&self.height.to_le_bytes());
        out.extend_from_slice(&self.dbu_per_um.to_le_bytes());
        for &v in &self.power {
            out.extend_from_slice(&v.to_le_bytes());
        }
        match &self.netlist {
            Some(nl) => {
                out.push(1);
                out.extend_from_slice(&(nl.len() as u32).to_le_bytes());
                out.extend_from_slice(nl.as_bytes());
            }
            None => out.push(0),
        }
        if !self.windows.is_empty() {
            out.extend_from_slice(&(self.windows.len() as u16).to_le_bytes());
            for window in &self.windows {
                for &v in window {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
        out
    }

    /// Parses a request frame, validating every length against its cap.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Proto`] on malformed or oversized input.
    pub fn decode(buf: &[u8]) -> Result<Self, ServeError> {
        let mut r = Cursor::new(buf);
        r.magic(REQUEST_MAGIC, "request")?;
        let version = r.u8()?;
        if version != VERSION {
            return Err(proto(format!("unsupported request version {version}")));
        }
        let model = r.str16("model name")?;
        let design = r.str16("design name")?;
        let width = r.u32()?;
        let height = r.u32()?;
        let pixels = check_dims(width, height)?;
        let dbu_per_um = r.u32()?;
        if dbu_per_um == 0 || dbu_per_um > MAX_DBU_PER_UM {
            return Err(proto(format!(
                "dbu_per_um {dbu_per_um} outside 1..={MAX_DBU_PER_UM}"
            )));
        }
        let power = r.f32s(pixels)?;
        let netlist = match r.u8()? {
            0 => None,
            1 => {
                let len = r.u32()? as usize;
                if len > MAX_NETLIST {
                    return Err(proto(format!(
                        "netlist of {len} bytes exceeds cap {MAX_NETLIST}"
                    )));
                }
                Some(r.utf8(len, "netlist")?)
            }
            other => return Err(proto(format!("bad has_netlist flag {other}"))),
        };
        // Optional dynamic block: a VERSION 1 static frame ends right
        // here, so the branch keys on whether any bytes remain.
        let windows = if r.remaining() == 0 {
            Vec::new()
        } else {
            let count = r.u16()? as usize;
            if count == 0 || count > MAX_WINDOWS {
                return Err(proto(format!(
                    "window count {count} outside 1..={MAX_WINDOWS}"
                )));
            }
            if (count as u64) * (pixels as u64) > MAX_WINDOW_PIXELS {
                return Err(proto(format!(
                    "{count} windows of {pixels} pixels exceed \
                     {MAX_WINDOW_PIXELS} total pixels"
                )));
            }
            let mut windows = Vec::with_capacity(count);
            for _ in 0..count {
                windows.push(r.f32s(pixels)?);
            }
            windows
        };
        r.finish()?;
        Ok(PredictRequest {
            model,
            design,
            width,
            height,
            dbu_per_um,
            power,
            netlist,
            windows,
        })
    }
}

/// A served prediction (or, on the wire, an error frame).
#[derive(Debug, Clone, PartialEq)]
pub struct PredictResponse {
    /// Map width in pixels — the design's original resolution.
    pub width: u32,
    /// Map height in pixels.
    pub height: u32,
    /// Hotspot threshold in volts (90 % of the map maximum).
    pub threshold: f32,
    /// Always `false` from this server: the byte reported a hit in the
    /// feature cache, which is gone. It stays so the frame layout (and
    /// every deployed client's decoder) is unchanged.
    pub cache_hit: bool,
    /// Row-major IR-drop map in volts.
    pub map: Vec<f32>,
    /// Row-major hotspot mask (1 = hotspot).
    pub mask: Vec<u8>,
}

impl PredictResponse {
    /// Serializes a success frame.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.map.len() * 5);
        out.extend_from_slice(RESPONSE_MAGIC);
        out.push(VERSION);
        out.push(0);
        out.push(u8::from(self.cache_hit));
        out.extend_from_slice(&self.width.to_le_bytes());
        out.extend_from_slice(&self.height.to_le_bytes());
        out.extend_from_slice(&self.threshold.to_le_bytes());
        for &v in &self.map {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&self.mask);
        out
    }

    /// Serializes an error frame.
    #[must_use]
    pub fn encode_error(msg: &str) -> Vec<u8> {
        let mut out = Vec::with_capacity(10 + msg.len());
        out.extend_from_slice(RESPONSE_MAGIC);
        out.push(VERSION);
        out.push(1);
        out.extend_from_slice(&(msg.len() as u32).to_le_bytes());
        out.extend_from_slice(msg.as_bytes());
        out
    }

    /// Parses a response frame; a served error frame surfaces as
    /// [`ServeError::Proto`] carrying the server's message.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Proto`] on malformed input or an error frame.
    pub fn decode(buf: &[u8]) -> Result<Self, ServeError> {
        let mut r = Cursor::new(buf);
        r.magic(RESPONSE_MAGIC, "response")?;
        let version = r.u8()?;
        if version != VERSION {
            return Err(proto(format!("unsupported response version {version}")));
        }
        match r.u8()? {
            0 => {}
            1 => {
                let len = r.u32()? as usize;
                let msg = r.utf8(len.min(1 << 20), "error message")?;
                return Err(proto(format!("server error: {msg}")));
            }
            other => return Err(proto(format!("bad response status {other}"))),
        }
        let cache_hit = r.u8()? != 0;
        let width = r.u32()?;
        let height = r.u32()?;
        let pixels = check_dims(width, height)?;
        let threshold = f32::from_le_bytes(r.bytes(4)?.try_into().expect("4 bytes"));
        let map = r.f32s(pixels)?;
        let mask = r.bytes(pixels)?.to_vec();
        r.finish()?;
        Ok(PredictResponse {
            width,
            height,
            threshold,
            cache_hit,
            map,
            mask,
        })
    }
}

fn proto(msg: String) -> ServeError {
    ServeError::Proto(msg)
}

/// Validates raster dimensions, returning the pixel count.
fn check_dims(width: u32, height: u32) -> Result<usize, ServeError> {
    if width == 0 || height == 0 || width > MAX_EDGE || height > MAX_EDGE {
        return Err(proto(format!(
            "raster {width}×{height} outside 1..={MAX_EDGE} per edge"
        )));
    }
    let pixels = u64::from(width) * u64::from(height);
    if pixels > MAX_PIXELS {
        return Err(proto(format!(
            "raster {width}×{height} exceeds {MAX_PIXELS} pixels"
        )));
    }
    Ok(pixels as usize)
}

fn put_str16(out: &mut Vec<u8>, s: &str) {
    assert!(
        s.len() <= MAX_NAME,
        "name of {} bytes exceeds protocol cap {MAX_NAME}",
        s.len()
    );
    out.extend_from_slice(&(s.len() as u16).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Bounds-checked little-endian reader over a byte slice.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], ServeError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| proto(format!("truncated frame: need {n} more bytes")))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn magic(&mut self, expect: &[u8; 4], what: &str) -> Result<(), ServeError> {
        if self.bytes(4)? != expect {
            return Err(proto(format!("bad {what} magic")));
        }
        Ok(())
    }

    fn u8(&mut self) -> Result<u8, ServeError> {
        Ok(self.bytes(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ServeError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().expect("4")))
    }

    fn u16(&mut self) -> Result<u16, ServeError> {
        Ok(u16::from_le_bytes(self.bytes(2)?.try_into().expect("2")))
    }

    fn str16(&mut self, what: &str) -> Result<String, ServeError> {
        let len = self.u16()? as usize;
        if len > MAX_NAME {
            return Err(proto(format!("{what} of {len} bytes exceeds {MAX_NAME}")));
        }
        self.utf8(len, what)
    }

    fn utf8(&mut self, len: usize, what: &str) -> Result<String, ServeError> {
        String::from_utf8(self.bytes(len)?.to_vec())
            .map_err(|e| proto(format!("{what} is not UTF-8: {e}")))
    }

    fn f32s(&mut self, n: usize) -> Result<Vec<f32>, ServeError> {
        let raw = self.bytes(n * 4)?;
        Ok(raw
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect())
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn finish(&self) -> Result<(), ServeError> {
        if self.pos != self.buf.len() {
            return Err(proto(format!(
                "{} trailing bytes after frame",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmmir_pdn::{CaseKind, CaseSpec};

    fn request() -> PredictRequest {
        let case = CaseSpec::new("d", 12, 10, 3, CaseKind::Fake).generate();
        let mut req = PredictRequest::from_parts("d", &case.power, Some(&case.netlist));
        req.model = "demo".to_string();
        req
    }

    #[test]
    fn request_round_trip() {
        let req = request();
        let back = PredictRequest::decode(&req.encode()).unwrap();
        assert_eq!(req, back);
        assert_eq!(req.fingerprint(), back.fingerprint());
    }

    #[test]
    fn response_round_trip() {
        let resp = PredictResponse {
            width: 3,
            height: 2,
            threshold: 0.009,
            cache_hit: true,
            map: vec![0.001, 0.002, 0.003, 0.004, 0.005, 0.01],
            mask: vec![0, 0, 0, 0, 0, 1],
        };
        let back = PredictResponse::decode(&resp.encode()).unwrap();
        assert_eq!(resp, back);
    }

    #[test]
    fn error_frame_surfaces_message() {
        let err = PredictResponse::decode(&PredictResponse::encode_error("boom")).unwrap_err();
        assert!(err.to_string().contains("boom"));
    }

    #[test]
    fn fingerprint_is_content_only() {
        let mut a = request();
        let mut b = request();
        b.model = "other".to_string();
        b.design = "renamed".to_string();
        assert_eq!(a.fingerprint(), b.fingerprint());
        a.power[0] += 1.0;
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    /// Every single-bit flip of a power value, a netlist byte or a window
    /// value is a different key (the hasher makes same-layout inputs that
    /// differ in one word never collide — checked here exhaustively, not
    /// sampled); renaming the model or the design is not.
    #[test]
    fn every_single_bit_flip_of_the_content_changes_the_fingerprint() {
        let mut base = dynamic_request();
        let netlist = request().netlist.expect("static case carries a netlist");
        base.netlist = Some(netlist[..netlist.len().min(515)].to_string());
        let key = base.fingerprint();
        let mut flips = 0;
        let mut check = |flipped: &PredictRequest, what: &str, at: usize, bit: usize| {
            assert_ne!(flipped.fingerprint(), key, "{what} {at}, bit {bit}");
            flips += 1;
        };
        let flip = |v: &mut f32, bit: usize| *v = f32::from_bits(v.to_bits() ^ 1 << bit);
        for bit in 0..32 {
            for at in 0..base.power.len() {
                let mut r = base.clone();
                flip(&mut r.power[at], bit);
                check(&r, "power value", at, bit);
            }
            for at in 0..base.windows[2].len() {
                let mut r = base.clone();
                flip(&mut r.windows[2][at], bit);
                check(&r, "window value", at, bit);
            }
        }
        for bit in 0..7 {
            // Bit 7 would leave ASCII; the text stays valid UTF-8.
            for at in 0..base.netlist.as_ref().map_or(0, String::len) {
                let mut r = base.clone();
                let mut text = r.netlist.take().expect("netlist").into_bytes();
                text[at] ^= 1 << bit;
                r.netlist = Some(String::from_utf8(text).expect("ascii"));
                check(&r, "netlist byte", at, bit);
            }
        }
        assert!(flips > 8_000, "only {flips} flips checked");
        let mut renamed = base.clone();
        renamed.model = "other".to_string();
        renamed.design = "renamed".to_string();
        assert_eq!(renamed.fingerprint(), key);
        // An empty netlist is not an absent one.
        let (mut empty, mut absent) = (base.clone(), base);
        empty.netlist = Some(String::new());
        absent.netlist = None;
        assert_ne!(empty.fingerprint(), absent.fingerprint());
    }

    #[test]
    fn decode_rejects_hostile_frames() {
        let good = request().encode();
        // Truncations at every prefix length fail cleanly.
        for cut in [0, 3, 5, 9, 20, good.len() - 1] {
            assert!(PredictRequest::decode(&good[..cut]).is_err(), "cut {cut}");
        }
        // Trailing garbage is rejected too.
        let mut long = good.clone();
        long.push(0);
        assert!(PredictRequest::decode(&long).is_err());
        // Oversized dims are rejected before any allocation.
        let mut huge = good;
        let dims_at = 4 + 1 + 2 + "demo".len() + 2 + 1;
        huge[dims_at..dims_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(PredictRequest::decode(&huge).is_err());
    }

    fn dynamic_request() -> PredictRequest {
        let dyn_case = DynamicCase::generate(&CaseSpec::new("dd", 10, 8, 11, CaseKind::Fake), 3);
        let mut req = PredictRequest::from_dynamic_case(&dyn_case);
        req.model = "dyn".to_string();
        req
    }

    #[test]
    fn dynamic_request_round_trips_with_windows() {
        let req = dynamic_request();
        assert_eq!(req.windows.len(), 3);
        let back = PredictRequest::decode(&req.encode()).unwrap();
        assert_eq!(req, back);
        assert_eq!(req.fingerprint(), back.fingerprint());
        // The window maps widen exactly, like the envelope does.
        let maps = back.window_maps();
        assert_eq!(maps.len(), 3);
        assert_eq!(maps[0].width(), 10);
        assert_eq!(maps[0].height(), 8);
    }

    #[test]
    fn windows_change_the_fingerprint_but_static_hash_is_stable() {
        let with = dynamic_request();
        let mut without = with.clone();
        without.windows.clear();
        assert_ne!(with.fingerprint(), without.fingerprint());
        // A static request built the old way hashes identically to one
        // whose (empty) window field simply exists: the extension must not
        // shift existing cache keys or shard ranges.
        let legacy = PredictRequest::decode(&without.encode()).unwrap();
        assert_eq!(legacy.fingerprint(), without.fingerprint());
        // And two different window payloads on the same envelope differ.
        let mut other = with.clone();
        other.windows[1][0] += 1.0;
        assert_ne!(with.fingerprint(), other.fingerprint());
    }

    #[test]
    fn hostile_window_blocks_are_rejected() {
        let req = dynamic_request();
        let good = req.encode();
        // Truncations inside the window block fail cleanly.
        for cut in [good.len() - 1, good.len() - 4 * 10 * 8, good.len() - 2] {
            assert!(PredictRequest::decode(&good[..cut]).is_err(), "cut {cut}");
        }
        // A zero window count is rejected (present block must be non-empty).
        let mut zero = req.clone();
        zero.windows.clear();
        let mut frame = zero.encode();
        frame.extend_from_slice(&0u16.to_le_bytes());
        assert!(PredictRequest::decode(&frame).is_err());
        // A count over the cap is rejected before any window allocation.
        let mut frame = zero.encode();
        frame.extend_from_slice(&(MAX_WINDOWS as u16 + 1).to_le_bytes());
        assert!(PredictRequest::decode(&frame).is_err());
        // Trailing garbage after the window block is rejected too.
        let mut long = good;
        long.push(0);
        assert!(PredictRequest::decode(&long).is_err());
    }

    #[test]
    fn power_map_round_trips_exactly() {
        let case = CaseSpec::new("d", 8, 8, 1, CaseKind::Fake).generate();
        let req = PredictRequest::from_parts("d", &case.power, None);
        let pm = req.power_map();
        // f32 → f64 widening is exact, so a second narrowing is stable.
        let again = PredictRequest::from_parts("d", &pm, None);
        assert_eq!(req.power, again.power);
        assert_eq!(req.fingerprint(), again.fingerprint());
    }
}
