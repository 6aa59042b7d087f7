//! Hermetic stand-in for `serde_derive`.
//!
//! Implements `#[derive(Serialize)]` and `#[derive(Deserialize)]` against
//! the compat `serde` crate's streaming data model: each derive emits one
//! method, `serialize` (events into a `Sink`) or `deserialize` (events
//! pulled from a `Source`), and every format — the `Value` tree behind
//! JSON as well as the binary wire codec — goes through it. The input item is
//! parsed directly from the `proc_macro` token stream (the environment has
//! no `syn`/`quote`), which restricts derives to non-generic structs and
//! enums — exactly the shapes this workspace uses. Representation follows
//! upstream serde's JSON conventions: named structs become maps, newtype
//! wrappers are transparent, unit enum variants become strings, and data
//! variants become single-entry maps keyed by the variant name.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Debug)]
enum Shape {
    Unit,
    Tuple(usize),
    Named(Vec<String>),
}

#[derive(Debug)]
struct Variant {
    name: String,
    shape: Shape,
}

#[derive(Debug)]
enum Item {
    Struct {
        name: String,
        shape: Shape,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

/// Derives `serde::Serialize`.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let code = match &item {
        Item::Struct { name, shape } => serialize_struct(name, shape),
        Item::Enum { name, variants } => serialize_enum(name, variants),
    };
    code.parse().expect("serde_derive generated invalid Rust")
}

/// Derives `serde::Deserialize`.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let code = match &item {
        Item::Struct { name, shape } => deserialize_struct(name, shape),
        Item::Enum { name, variants } => deserialize_enum(name, variants),
    };
    code.parse().expect("serde_derive generated invalid Rust")
}

// ---- parsing ---------------------------------------------------------

fn parse_item(input: TokenStream) -> Item {
    let mut tokens = input.into_iter().peekable();
    loop {
        match tokens.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                // Attribute or doc comment: consume the bracket group.
                tokens.next();
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                // Visibility, possibly `pub(crate)`/`pub(super)`.
                if let Some(TokenTree::Group(g)) = tokens.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        tokens.next();
                    }
                }
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "struct" => {
                let name = expect_ident(&mut tokens, "struct name");
                reject_generics(tokens.peek(), &name);
                let shape = match tokens.next() {
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                        Shape::Named(parse_named_fields(g.stream()))
                    }
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                        Shape::Tuple(count_tuple_fields(g.stream()))
                    }
                    Some(TokenTree::Punct(p)) if p.as_char() == ';' => Shape::Unit,
                    other => {
                        panic!("serde_derive: unexpected token after `struct {name}`: {other:?}")
                    }
                };
                return Item::Struct { name, shape };
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "enum" => {
                let name = expect_ident(&mut tokens, "enum name");
                reject_generics(tokens.peek(), &name);
                let body = match tokens.next() {
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
                    other => panic!("serde_derive: expected enum body for `{name}`, got {other:?}"),
                };
                return Item::Enum {
                    name,
                    variants: parse_variants(body),
                };
            }
            Some(_) => {}
            None => panic!("serde_derive: no struct or enum found in derive input"),
        }
    }
}

fn reject_generics(peeked: Option<&TokenTree>, name: &str) {
    if let Some(TokenTree::Punct(p)) = peeked {
        if p.as_char() == '<' {
            panic!("serde_derive (compat): generic type `{name}` is not supported");
        }
    }
}

fn expect_ident(tokens: &mut impl Iterator<Item = TokenTree>, what: &str) -> String {
    match tokens.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde_derive: expected {what}, got {other:?}"),
    }
}

/// Parses `a: T, pub b: U<V, W>, ...` into field names.
fn parse_named_fields(stream: TokenStream) -> Vec<String> {
    let mut fields = Vec::new();
    let mut tokens = stream.into_iter().peekable();
    loop {
        // Skip attributes and visibility ahead of the field name.
        match tokens.peek() {
            None => break,
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                tokens.next();
                tokens.next();
                continue;
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                tokens.next();
                if let Some(TokenTree::Group(g)) = tokens.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        tokens.next();
                    }
                }
                continue;
            }
            _ => {}
        }
        let name = expect_ident(&mut tokens, "field name");
        match tokens.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("serde_derive: expected `:` after field `{name}`, got {other:?}"),
        }
        fields.push(name);
        // Skip the type: consume until a comma at angle-bracket depth 0.
        let mut depth = 0i32;
        loop {
            match tokens.next() {
                None => break,
                Some(TokenTree::Punct(p)) => match p.as_char() {
                    '<' => depth += 1,
                    '>' => depth -= 1,
                    ',' if depth == 0 => break,
                    _ => {}
                },
                Some(_) => {}
            }
        }
    }
    fields
}

/// Counts fields of a tuple struct/variant (`u32, Vec<T>, ...`).
fn count_tuple_fields(stream: TokenStream) -> usize {
    let mut arity = 0usize;
    let mut depth = 0i32;
    let mut segment_has_tokens = false;
    for tt in stream {
        match tt {
            TokenTree::Punct(p) => match p.as_char() {
                '<' => depth += 1,
                '>' => depth -= 1,
                ',' if depth == 0 => {
                    if segment_has_tokens {
                        arity += 1;
                        segment_has_tokens = false;
                    }
                }
                _ => segment_has_tokens = true,
            },
            _ => segment_has_tokens = true,
        }
    }
    if segment_has_tokens {
        arity += 1;
    }
    arity
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let mut variants = Vec::new();
    let mut tokens = stream.into_iter().peekable();
    loop {
        match tokens.peek() {
            None => break,
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                tokens.next();
                tokens.next();
                continue;
            }
            _ => {}
        }
        let name = expect_ident(&mut tokens, "variant name");
        let shape = match tokens.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_named_fields(g.stream());
                tokens.next();
                Shape::Named(fields)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let arity = count_tuple_fields(g.stream());
                tokens.next();
                Shape::Tuple(arity)
            }
            _ => Shape::Unit,
        };
        // Skip a discriminant (`= expr`) and the trailing comma.
        loop {
            match tokens.peek() {
                Some(TokenTree::Punct(p)) if p.as_char() == ',' => {
                    tokens.next();
                    break;
                }
                None => break,
                _ => {
                    tokens.next();
                }
            }
        }
        variants.push(Variant { name, shape });
    }
    variants
}

// ---- code generation -------------------------------------------------

/// Statements that emit `values` (expressions borrowing each field) as a
/// map keyed by `names`.
fn emit_map(names: &[String], values: &[String]) -> String {
    let mut code = format!("::serde::Sink::map(__sink, {});\n", names.len());
    for (name, value) in names.iter().zip(values) {
        code.push_str(&format!(
            "::serde::Sink::key(__sink, \"{name}\");\n::serde::Serialize::serialize({value}, __sink);\n"
        ));
    }
    code
}

/// Statements that emit `values` as a sequence.
fn emit_seq(values: &[String]) -> String {
    let mut code = format!("::serde::Sink::seq(__sink, {});\n", values.len());
    for value in values {
        code.push_str(&format!(
            "::serde::Serialize::serialize({value}, __sink);\n"
        ));
    }
    code
}

fn serialize_impl(name: &str, body: &str) -> String {
    format!(
        "#[automatically_derived]\n\
         #[allow(unused_variables, clippy::all)]\n\
         impl ::serde::Serialize for {name} {{\n\
         fn serialize<__S: ::serde::Sink>(&self, __sink: &mut __S) {{\n{body}\n}}\n\
         }}"
    )
}

fn deserialize_impl(name: &str, body: &str) -> String {
    format!(
        "#[automatically_derived]\n\
         #[allow(unused_variables, clippy::all)]\n\
         impl ::serde::Deserialize for {name} {{\n\
         fn deserialize<__S: ::serde::Source>(__src: &mut __S) -> \
         ::std::result::Result<Self, ::serde::DeError> {{\n{body}\n}}\n\
         }}"
    )
}

fn serialize_struct(name: &str, shape: &Shape) -> String {
    let body = match shape {
        Shape::Unit => "::serde::Sink::null(__sink);".to_string(),
        Shape::Tuple(1) => "::serde::Serialize::serialize(&self.0, __sink);".to_string(),
        Shape::Tuple(n) => emit_seq(&(0..*n).map(|i| format!("&self.{i}")).collect::<Vec<_>>()),
        Shape::Named(fields) => emit_map(
            fields,
            &fields
                .iter()
                .map(|f| format!("&self.{f}"))
                .collect::<Vec<_>>(),
        ),
    };
    serialize_impl(name, &body)
}

/// An expression reading `n` sequence elements into `ctor(..)`.
fn read_tuple(ctor: &str, n: usize) -> String {
    let fields = vec!["::serde::Deserialize::deserialize(__src)?"; n].join(", ");
    format!(
        "{{\n\
         let __len = ::serde::Source::seq(__src)?;\n\
         if __len != {n} {{\n\
         return ::std::result::Result::Err(::serde::DeError(::std::format!(\
         \"expected {n}-element sequence for {ctor}, got {{__len}} elements\")));\n\
         }}\n\
         ::std::result::Result::Ok({ctor}({fields}))\n\
         }}"
    )
}

/// An expression reading a map into `ctor { fields }`: keys in any
/// order, the first of duplicate keys wins, unknown keys are skipped and
/// a missing field is an error naming it.
fn read_named(ctor: &str, fields: &[String]) -> String {
    let mut code = String::from("{\n");
    for i in 0..fields.len() {
        code.push_str(&format!("let mut __f{i} = ::std::option::Option::None;\n"));
    }
    code.push_str(
        "for _ in 0..::serde::Source::map(__src)? {\n\
         match ::serde::Source::key(__src)? {\n",
    );
    for (i, f) in fields.iter().enumerate() {
        code.push_str(&format!(
            "\"{f}\" if __f{i}.is_none() => \
             __f{i} = ::std::option::Option::Some(::serde::Deserialize::deserialize(__src)?),\n"
        ));
    }
    code.push_str("_ => ::serde::Source::skip(__src)?,\n}\n}\n");
    let inits: Vec<String> = fields
        .iter()
        .enumerate()
        .map(|(i, f)| format!("{f}: __f{i}.ok_or_else(|| ::serde::DeError::missing(\"{f}\"))?"))
        .collect();
    code.push_str(&format!(
        "::std::result::Result::Ok({ctor} {{ {} }})\n}}",
        inits.join(", ")
    ));
    code
}

fn deserialize_struct(name: &str, shape: &Shape) -> String {
    let body = match shape {
        Shape::Unit => format!("::serde::Source::skip(__src)?;\n::std::result::Result::Ok({name})"),
        Shape::Tuple(1) => {
            format!("::std::result::Result::Ok({name}(::serde::Deserialize::deserialize(__src)?))")
        }
        Shape::Tuple(n) => read_tuple(name, *n),
        Shape::Named(fields) => read_named(name, fields),
    };
    deserialize_impl(name, &body)
}

fn serialize_enum(name: &str, variants: &[Variant]) -> String {
    let arms: Vec<String> = variants
        .iter()
        .map(|v| {
            let vname = &v.name;
            let tag = format!(
                "::serde::Sink::map(__sink, 1);\n::serde::Sink::key(__sink, \"{vname}\");\n"
            );
            match &v.shape {
                Shape::Unit => {
                    format!("{name}::{vname} => ::serde::Sink::str(__sink, \"{vname}\"),")
                }
                Shape::Tuple(1) => format!(
                    "{name}::{vname}(f0) => {{\n{tag}\
                     ::serde::Serialize::serialize(f0, __sink);\n}}"
                ),
                Shape::Tuple(n) => {
                    let binds: Vec<String> = (0..*n).map(|i| format!("f{i}")).collect();
                    format!(
                        "{name}::{vname}({}) => {{\n{tag}{}}}",
                        binds.join(", "),
                        emit_seq(&binds)
                    )
                }
                Shape::Named(fields) => format!(
                    "{name}::{vname} {{ {} }} => {{\n{tag}{}}}",
                    fields.join(", "),
                    emit_map(fields, fields)
                ),
            }
        })
        .collect();
    serialize_impl(name, &format!("match self {{\n{}\n}}", arms.join("\n")))
}

fn deserialize_enum(name: &str, variants: &[Variant]) -> String {
    let unit_arms: Vec<String> = variants
        .iter()
        .filter(|v| matches!(v.shape, Shape::Unit))
        .map(|v| {
            format!(
                "\"{vname}\" => ::std::result::Result::Ok({name}::{vname}),",
                vname = v.name
            )
        })
        .collect();
    let data_arms: Vec<String> = variants
        .iter()
        .filter_map(|v| {
            let vname = &v.name;
            let ctor = format!("{name}::{vname}");
            let read = match &v.shape {
                Shape::Unit => return None,
                Shape::Tuple(1) => format!(
                    "::std::result::Result::Ok({ctor}(::serde::Deserialize::deserialize(__src)?))"
                ),
                Shape::Tuple(n) => read_tuple(&ctor, *n),
                Shape::Named(fields) => read_named(&ctor, fields),
            };
            Some(format!("\"{vname}\" => {read},"))
        })
        .collect();
    let unknown = format!(
        "__other => ::std::result::Result::Err(::serde::DeError(::std::format!(\
         \"unknown variant {{__other}} of {name}\"))),"
    );
    let body = format!(
        "match ::serde::Source::next(__src)? {{\n\
         ::serde::Event::Str(__tag) => match __tag {{\n{unit}\n{unknown}\n}},\n\
         ::serde::Event::Map(1) => match ::serde::Source::key(__src)? {{\n{data}\n{unknown}\n}},\n\
         __other => ::std::result::Result::Err(::serde::DeError::expected(\
         \"variant of {name}\", &__other)),\n\
         }}",
        unit = unit_arms.join("\n"),
        data = data_arms.join("\n"),
    );
    deserialize_impl(name, &body)
}
