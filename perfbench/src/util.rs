//! Shared plumbing: the metric table, order statistics, a seeded RNG,
//! peak-RSS sampling, CPU pinning, and a small JSON reader for the
//! daemon's answers.

use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Instant;

/// Named metric values in a fixed schema: every name the schema lists is
/// printed, in schema order, whether or not a workload set it.
pub struct Metrics {
    schema: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    pub fn new(schema: &'static [(&'static str, &'static str)]) -> Self {
        Metrics {
            schema,
            values: BTreeMap::new(),
        }
    }

    /// Set a metric; panics on a name outside the schema so a typo can
    /// never silently print a zero.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.schema.iter().any(|(n, _)| *n == name),
            "metric {name} is not in the schema"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values.insert(name, value);
    }

    /// The value set for `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The `metrics` object of the result line.
    pub fn to_json(&self) -> String {
        let items: Vec<String> = self
            .schema
            .iter()
            .map(|(name, unit)| {
                let v = self.values.get(name).copied().unwrap_or(0.0);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    fmt_num(v)
                )
            })
            .collect();
        format!("{{{}}}", items.join(", "))
    }
}

/// Full-precision number formatting that stays valid JSON.
fn fmt_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The value with `beyond` samples strictly above it in sorted order,
/// where `beyond` is the larger of ten samples and one percent of the
/// sample: the 99th percentile once there are at least 1,000 samples,
/// otherwise the highest percentile that still has ten samples beyond it.
/// Returns the value and the percentile it stands for.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let n = values.len();
    assert!(n > 10, "a tail needs more than ten samples, got {n}");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let beyond = 10usize.max(n.div_ceil(100));
    let idx = n - beyond - 1;
    (v[idx], 100.0 * (idx + 1) as f64 / n as f64)
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// SplitMix64: a small seeded generator for the benchmark's own draws
/// (round seeds, query mixes), independent of the program's RNG.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The world seed of round `round` of a run seeded `seed`: every round
/// scans a different world, so a run's median is taken over several
/// inputs rather than one.
pub fn round_seed(seed: u64, round: u64) -> u64 {
    SplitMix::new(seed.wrapping_mul(0x1_0000_0001).wrapping_add(round)).next_u64()
}

/// A Linux `cpu_set_t` (1,024 CPUs).
#[derive(Clone, Copy)]
#[repr(C)]
struct CpuSet([u64; 16]);

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs the process may use, as found before [`pin_to_one_cpu`].
static ALL_CPUS: OnceLock<CpuSet> = OnceLock::new();

fn set_affinity(mask: &CpuSet) -> bool {
    // SAFETY: `mask` is a valid cpu_set_t of the size passed; pid 0 is the
    // calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask) == 0 }
}

/// Pin the calling thread, and every thread it spawns from now on, to the
/// CPU it runs on. The timed work then stays on one core: on a host that
/// shares its cores with other tenants, how far apart two cores sit, and
/// where the scheduler moves threads between them, would otherwise enter
/// the timings. Returns the CPU, or `None` where pinning is unavailable
/// (the run then goes on unpinned).
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut all = CpuSet([0; 16]);
    // SAFETY: as in `set_affinity`; the kernel fills `all`.
    let got = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut all) };
    // SAFETY: no arguments, no memory touched.
    let cpu = unsafe { sched_getcpu() };
    if got != 0 || !(0..1024).contains(&cpu) {
        return None;
    }
    ALL_CPUS.get_or_init(|| all);
    let mut one = CpuSet([0; 16]);
    one.0[cpu as usize / 64] = 1 << (cpu % 64);
    set_affinity(&one).then_some(cpu as usize)
}

/// Run `f` with the calling thread free to use every CPU of the process
/// (threads `f` spawns inherit that), then restore the pin. For work that
/// measures parallelism.
pub fn on_all_cpus<R>(f: impl FnOnce() -> R) -> R {
    let Some(all) = ALL_CPUS.get() else {
        return f();
    };
    let mut pinned = CpuSet([0; 16]);
    // SAFETY: as in `set_affinity`; the kernel fills `pinned`.
    let saved = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut pinned) } == 0;
    set_affinity(all);
    let out = f();
    if saved {
        set_affinity(&pinned);
    }
    out
}

/// Process peak resident set size in MiB (`VmHWM`), 0 where unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// A parsed JSON value (just enough of JSON for the daemon's bodies).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing bytes at {}", p.i));
        }
        Ok(v)
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn str(&self, key: &str) -> Result<&str, String> {
        match self.get(key) {
            Some(Json::Str(s)) => Ok(s),
            other => Err(format!("field {key}: expected a string, got {other:?}")),
        }
    }

    pub fn u64(&self, key: &str) -> Result<u64, String> {
        match self.get(key) {
            Some(Json::Num(n)) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n as u64),
            other => Err(format!("field {key}: expected a count, got {other:?}")),
        }
    }

    pub fn bool(&self, key: &str) -> Result<bool, String> {
        match self.get(key) {
            Some(Json::Bool(b)) => Ok(*b),
            other => Err(format!("field {key}: expected a bool, got {other:?}")),
        }
    }

    pub fn arr(&self, key: &str) -> Result<&[Json], String> {
        match self.get(key) {
            Some(Json::Arr(a)) => Ok(a),
            other => Err(format!("field {key}: expected an array, got {other:?}")),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> Result<(), String> {
        if self.s[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(())
        } else {
            Err(format!("expected {lit:?} at {}", self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            None => Err("unexpected end of input".into()),
            Some(b'n') => self.eat("null").map(|_| Json::Null),
            Some(b't') => self.eat("true").map(|_| Json::Bool(true)),
            Some(b'f') => self.eat("false").map(|_| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected , or ] at {}", self.i)),
                    }
                }
            }
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.ws();
                    self.eat(":")?;
                    fields.push((key, self.value()?));
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("expected , or }} at {}", self.i)),
                    }
                }
            }
            Some(_) => {
                let start = self.i;
                while self.i < self.s.len()
                    && matches!(
                        self.s[self.i],
                        b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                    )
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad number at {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat("\"")?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or escape in one slice; both
            // delimiters are ASCII, so the cut always lands on a char boundary
            // of the (valid UTF-8) input.
            let start = self.i;
            while self.i < self.s.len() && !matches!(self.s[self.i], b'"' | b'\\') {
                self.i += 1;
            }
            out.push_str(std::str::from_utf8(&self.s[start..self.i]).map_err(|e| e.to_string())?);
            match self.s.get(self.i) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                _ => {
                    let esc = self.s.get(self.i + 1).copied();
                    self.i += 2;
                    match esc {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .s
                                .get(self.i..self.i + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.i += 4;
                        }
                        _ => return Err(format!("bad escape at {}", self.i)),
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips_daemon_shapes() {
        let v = Json::parse(
            r#"{"domain":"a.com","epoch":3,"records":[{"ns":"1.2.3.4","present":true,"x":null}],"e":"q\"\u0041"}"#,
        )
        .unwrap();
        assert_eq!(v.str("domain").unwrap(), "a.com");
        assert_eq!(v.u64("epoch").unwrap(), 3);
        let r = &v.arr("records").unwrap()[0];
        assert!(r.bool("present").unwrap());
        assert_eq!(v.str("e").unwrap(), "q\"A");
        assert!(Json::parse("{\"a\":1} x").is_err());
    }

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        let (p, pct) = tail(&v);
        assert_eq!(pct, 99.0);
        assert_eq!(p, 1980.0);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (p, pct) = tail(&v);
        assert_eq!((p, pct), (90.0, 90.0));
    }
}
