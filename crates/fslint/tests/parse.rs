//! The signature record `parse` keeps for every `fn` item, read once
//! from the item's own `fn` token: the shapes the taint, unit and effect
//! passes read parameters, receivers and return types from.

use fslint::lexer::{lex, Lexed};
use fslint::parse::{parse, FileModel, FnItem, Receiver};

fn model(src: &str) -> (Lexed, FileModel) {
    let lexed = lex(src);
    let model = parse(&lexed);
    (lexed, model)
}

fn item<'m>(m: &'m FileModel, name: &str) -> &'m FnItem {
    m.fns.iter().find(|f| f.name == name).unwrap_or_else(|| panic!("no fn {name}"))
}

/// The tokens of `span`, space-joined.
fn text(lexed: &Lexed, (lo, hi): (usize, usize)) -> String {
    (lo..=hi).map(|i| lexed.text(i)).collect::<Vec<_>>().join(" ")
}

/// `(name, type text, type name, &mut)` per parameter.
fn params(lexed: &Lexed, f: &FnItem) -> Vec<(String, String, String, bool)> {
    f.sig
        .params
        .iter()
        .map(|p| (p.name.clone(), text(lexed, p.ty), p.ty_name.clone(), p.mut_ref))
        .collect()
}

#[test]
fn generic_commas_stay_inside_one_parameter() {
    let (lexed, m) = model("fn f(m: &HashMap<K, V>, n: usize) {}");
    let p = params(&lexed, item(&m, "f"));
    assert_eq!(p.len(), 2, "{p:?}");
    assert_eq!(p[0], ("m".into(), "& HashMap < K , V >".into(), "HashMap".into(), false));
    assert_eq!(p[1].0, "n");
}

#[test]
fn lifetimes_and_mut_refs_are_seen_through() {
    let (lexed, m) = model("fn f<'a>(x: &'a mut T, y: &'a T, mut z: Vec<T>) {}");
    let p = params(&lexed, item(&m, "f"));
    let shapes: Vec<(&str, &str, bool)> =
        p.iter().map(|(n, _, t, r)| (n.as_str(), t.as_str(), *r)).collect();
    assert_eq!(shapes, vec![("x", "T", true), ("y", "T", false), ("z", "Vec", false)]);
}

#[test]
fn qualified_types_are_named_by_their_last_segment() {
    let (lexed, m) = model("fn f(srv: &mut simcore::Server, view: &plane::View) {}");
    let p = params(&lexed, item(&m, "f"));
    assert_eq!((p[0].2.as_str(), p[0].3), ("Server", true));
    assert_eq!((p[1].2.as_str(), p[1].3), ("View", false));
}

#[test]
fn receivers_distinguish_owned_shared_and_exclusive_self() {
    let (_, m) = model(
        "impl W { fn a(&self) {} fn b(&mut self, n: u64) {} fn c(mut self) -> W { self } \
         fn d(self) {} fn e(n: u64) {} fn f(mut self: Box<Self>, t_ms: u64) {} }",
    );
    let receiver = |name: &str| item(&m, name).sig.receiver;
    assert_eq!(receiver("a"), Receiver::Ref);
    assert_eq!(receiver("b"), Receiver::RefMut);
    assert_eq!(receiver("c"), Receiver::Value, "a by-value `mut self` consumes its receiver");
    assert_eq!(receiver("d"), Receiver::Value);
    assert_eq!(receiver("e"), Receiver::None);
    assert_eq!(receiver("f"), Receiver::Typed);
    assert_eq!(item(&m, "b").sig.params.len(), 1, "`self` is no named parameter");
    assert_eq!(item(&m, "f").sig.params.len(), 1, "nor is a typed `self`");
}

#[test]
fn fn_types_in_generics_and_parameters_hide_nothing() {
    let (lexed, m) = model(
        "fn g<T: Fn(u64) -> u64>(cb: T, lat_ms: u64) -> u64 { 0 } \
         fn fold(f: fn(u64) -> u64, m: &HashMap<u64, u64>) {}",
    );
    let names = |f: &FnItem| f.sig.params.iter().map(|p| p.name.clone()).collect::<Vec<_>>();
    assert_eq!(names(item(&m, "g")), ["cb", "lat_ms"]);
    assert_eq!(item(&m, "g").sig.ret.map(|r| text(&lexed, r)).as_deref(), Some("u64"));
    assert_eq!(names(item(&m, "fold")), ["f", "m"]);
    assert_eq!(text(&lexed, item(&m, "fold").sig.params[0].ty), "fn ( u64 ) - > u64");
}

#[test]
fn return_types_stop_at_a_where_clause() {
    let (lexed, m) =
        model("fn f<T>(x: T) -> Vec<T> where T: Ord { vec![x] } fn g() {} fn h() -> u64 { 1 }");
    let ret = |name: &str| item(&m, name).sig.ret.map(|r| text(&lexed, r));
    assert_eq!(ret("f").as_deref(), Some("Vec < T >"));
    assert_eq!(ret("g"), None);
    assert_eq!(ret("h").as_deref(), Some("u64"));
}

#[test]
fn patterns_without_a_single_name_are_not_parameters() {
    let (_, m) = model(
        "fn f((a, b): (u64, u64), c: u64) {} \
         proptest! { #[test] fn p(x in 0u64..9, v in proptest::collection::vec(0u8..2, 1..4)) {} }",
    );
    let names =
        |name: &str| item(&m, name).sig.params.iter().map(|p| p.name.clone()).collect::<Vec<_>>();
    assert_eq!(names("f"), ["c"]);
    assert!(names("p").is_empty(), "`x in strategy` binds no typed parameter");
    assert!(item(&m, "f").bound_vars.contains("c"), "bound_vars derive from the record");
}
