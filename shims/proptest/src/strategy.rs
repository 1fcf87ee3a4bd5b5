//! Value-generation strategies: integer ranges, regex-lite string
//! literals, tuples, [`Just`], [`Map`] (`prop_map`) and [`Union`]
//! (`prop_oneof!`).

use crate::TestRng;
use std::fmt::Debug;
use std::ops::Range;

/// A recipe for producing values of one type from the generation RNG.
pub trait Strategy {
    /// The type of generated values.
    type Value: Debug;

    /// Draw one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values (proptest's `prop_map`).
    fn prop_map<U: Debug, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Draw one value from a (possibly unsized) strategy. Used by the
/// `proptest!` macro so `&'static str` regex literals work alongside
/// sized strategies.
pub fn generate_one<S: Strategy + ?Sized>(strat: &S, rng: &mut TestRng) -> S::Value {
    strat.generate(rng)
}

macro_rules! impl_range_strategy {
    ($($ty:ty),*) => {$(
        impl Strategy for Range<$ty> {
            type Value = $ty;
            fn generate(&self, rng: &mut TestRng) -> $ty {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start.wrapping_add(rng.below(span) as $ty)
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize);

/// Always produce a clone of one value (proptest's `Just`).
#[derive(Clone, Copy, Debug)]
pub struct Just<T: Clone + Debug>(pub T);

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Mapped strategy returned by [`Strategy::prop_map`].
#[derive(Clone, Debug)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U: Debug, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// Object-safe strategy view, so [`Union`] can hold heterogeneous arms
/// with one value type.
pub trait DynStrategy<V> {
    /// Draw one value.
    fn generate_dyn(&self, rng: &mut TestRng) -> V;
}

impl<S: Strategy> DynStrategy<S::Value> for S {
    fn generate_dyn(&self, rng: &mut TestRng) -> S::Value {
        self.generate(rng)
    }
}

/// Uniform choice over strategies (proptest's `prop_oneof!`).
pub struct Union<V> {
    arms: Vec<Box<dyn DynStrategy<V>>>,
}

impl<V: Debug> Union<V> {
    /// An empty union; populate with [`Union::or`].
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Union { arms: Vec::new() }
    }

    /// Add one arm.
    pub fn or<S: DynStrategy<V> + 'static>(mut self, arm: S) -> Self {
        self.arms.push(Box::new(arm));
        self
    }
}

impl<V: Debug> Strategy for Union<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        assert!(!self.arms.is_empty(), "prop_oneof! with no arms");
        let idx = rng.below(self.arms.len() as u64) as usize;
        self.arms[idx].generate_dyn(rng)
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($name:ident),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A)
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
    (A, B, C, D, E, F)
}

/// One parsed atom of the regex-lite subset: a set of candidate chars
/// plus a repetition range.
struct Atom {
    chars: Vec<char>,
    min: usize,
    max: usize,
}

/// Parse the regex subset proptest string-literal strategies use here:
/// literal characters, `\x` escapes, `[a-z0-9_]`-style classes (ranges
/// and singletons), and `{m}` / `{m,n}` repetition suffixes.
fn parse_regex_lite(pattern: &str) -> Vec<Atom> {
    let mut chars = pattern.chars().peekable();
    let mut atoms: Vec<Atom> = Vec::new();
    while let Some(c) = chars.next() {
        match c {
            '[' => {
                let mut set = Vec::new();
                let mut prev: Option<char> = None;
                for d in chars.by_ref() {
                    match d {
                        ']' => break,
                        '-' if prev.is_some() => {
                            // Range marker: resolved when the end char arrives.
                            set.push('\u{0}');
                        }
                        d => {
                            if set.last() == Some(&'\u{0}') {
                                set.pop();
                                let lo = prev.expect("range start");
                                set.pop();
                                for r in lo..=d {
                                    set.push(r);
                                }
                                prev = None;
                            } else {
                                set.push(d);
                                prev = Some(d);
                            }
                        }
                    }
                }
                atoms.push(Atom {
                    chars: set,
                    min: 1,
                    max: 1,
                });
            }
            '{' => {
                let mut spec = String::new();
                for d in chars.by_ref() {
                    if d == '}' {
                        break;
                    }
                    spec.push(d);
                }
                let atom = atoms.last_mut().expect("repetition without atom");
                let (lo, hi) = match spec.split_once(',') {
                    Some((lo, hi)) => (lo.trim().parse().unwrap(), hi.trim().parse().unwrap()),
                    None => {
                        let n = spec.trim().parse().unwrap();
                        (n, n)
                    }
                };
                atom.min = lo;
                atom.max = hi;
            }
            '\\' => {
                let d = chars.next().expect("dangling escape");
                atoms.push(Atom {
                    chars: vec![d],
                    min: 1,
                    max: 1,
                });
            }
            c => atoms.push(Atom {
                chars: vec![c],
                min: 1,
                max: 1,
            }),
        }
    }
    atoms
}

impl Strategy for str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let mut out = String::new();
        for atom in parse_regex_lite(self) {
            let n = if atom.max > atom.min {
                atom.min + rng.below((atom.max - atom.min + 1) as u64) as usize
            } else {
                atom.min
            };
            for _ in 0..n {
                out.push(atom.chars[rng.below(atom.chars.len() as u64) as usize]);
            }
        }
        out
    }
}

impl Strategy for &str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        (**self).generate(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regex_lite_shapes() {
        let mut rng = TestRng::new(1);
        for _ in 0..200 {
            let host = generate_one("[a-z]{1,8}", &mut rng);
            assert!((1..=8).contains(&host.len()), "{host}");
            assert!(host.chars().all(|c| c.is_ascii_lowercase()));
            let dom = generate_one("[a-z]{2,8}\\.[a-z]{2,3}", &mut rng);
            let (l, r) = dom.split_once('.').expect("dot");
            assert!(
                (2..=8).contains(&l.len()) && (2..=3).contains(&r.len()),
                "{dom}"
            );
        }
    }

    #[test]
    fn union_covers_all_arms() {
        let s = Union::new().or(Just(0u8)).or(Just(1u8)).or(Just(2u8));
        let mut rng = TestRng::new(3);
        let mut seen = [false; 3];
        for _ in 0..100 {
            seen[s.generate(&mut rng) as usize] = true;
        }
        assert!(seen.iter().all(|&x| x));
    }
}
