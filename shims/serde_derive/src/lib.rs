//! Offline stand-in for `serde_derive` (see `shims/README.md`).
//!
//! Implements `#[derive(Serialize)]` / `#[derive(Deserialize)]` against the
//! shimmed `serde` crate's `Value`-based traits, without `syn`/`quote`
//! (which are equally unreachable offline): the item is parsed directly from
//! the `proc_macro` token stream. Supported shapes — everything the
//! workspace derives on:
//!
//! * structs with named fields  → JSON maps in field order;
//! * tuple structs              → newtypes unwrap to the inner value,
//!   wider tuples become sequences;
//! * unit structs               → `null`;
//! * enums with unit variants   → the variant name as a string.
//!
//! Generics, data-carrying enum variants and `#[serde(...)]` attributes are
//! not supported and fail loudly at compile time.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    generate_serialize(&item)
        .parse()
        .expect("generated code must parse")
}

#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    generate_deserialize(&item)
        .parse()
        .expect("generated code must parse")
}

// ---- a tiny item model -----------------------------------------------------

enum Shape {
    /// `struct S { a: A, b: B }` — field names in declaration order.
    Named(Vec<String>),
    /// `struct S(A, B);` — number of fields.
    Tuple(usize),
    /// `struct S;`
    Unit,
    /// `enum E { V1, V2 }` — variant names.
    Enum(Vec<String>),
}

struct Item {
    name: String,
    shape: Shape,
}

// ---- token-stream parsing --------------------------------------------------

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;

    // Skip outer attributes (`#[...]`, including doc comments) and
    // visibility (`pub`, `pub(crate)`).
    loop {
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => i += 2,
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                i += 1;
                if let Some(TokenTree::Group(g)) = tokens.get(i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        i += 1;
                    }
                }
            }
            _ => break,
        }
    }

    let kind = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde shim derive: expected `struct` or `enum`, got {other:?}"),
    };
    i += 1;
    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde shim derive: expected a type name, got {other:?}"),
    };
    i += 1;

    if let Some(TokenTree::Punct(p)) = tokens.get(i) {
        if p.as_char() == '<' {
            panic!("serde shim derive: generic type `{name}` is not supported");
        }
    }

    let shape = match (kind.as_str(), tokens.get(i)) {
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => {
            Shape::Named(parse_named_fields(g.stream()))
        }
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Parenthesis => {
            Shape::Tuple(count_tuple_fields(g.stream()))
        }
        ("struct", Some(TokenTree::Punct(p))) if p.as_char() == ';' => Shape::Unit,
        ("enum", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => {
            Shape::Enum(parse_unit_variants(&name, g.stream()))
        }
        _ => panic!("serde shim derive: unsupported item shape for `{name}`"),
    };

    Item { name, shape }
}

/// Extracts field names from the brace contents of a named struct.
fn parse_named_fields(stream: TokenStream) -> Vec<String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        // Skip attributes and visibility before the field name.
        match &tokens[i] {
            TokenTree::Punct(p) if p.as_char() == '#' => {
                i += 2;
                continue;
            }
            TokenTree::Ident(id) if id.to_string() == "pub" => {
                i += 1;
                if let Some(TokenTree::Group(g)) = tokens.get(i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        i += 1;
                    }
                }
                continue;
            }
            TokenTree::Ident(id) => {
                fields.push(id.to_string());
                i += 1;
                // Expect `:`, then skip the type up to a depth-0 comma.
                // Generic arguments use `<`/`>` (not token groups), so
                // angle-bracket depth must be tracked explicitly.
                let mut angle_depth = 0i32;
                while i < tokens.len() {
                    match &tokens[i] {
                        TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
                        TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
                        TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => {
                            i += 1;
                            break;
                        }
                        _ => {}
                    }
                    i += 1;
                }
            }
            other => panic!("serde shim derive: unexpected token in struct body: {other:?}"),
        }
    }
    fields
}

/// Counts the comma-separated fields of a tuple struct body.
fn count_tuple_fields(stream: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut count = 1;
    let mut angle_depth = 0i32;
    let mut saw_trailing_comma = false;
    for (idx, tok) in tokens.iter().enumerate() {
        if let TokenTree::Punct(p) = tok {
            match p.as_char() {
                '<' => angle_depth += 1,
                '>' => angle_depth -= 1,
                ',' if angle_depth == 0 => {
                    if idx + 1 == tokens.len() {
                        saw_trailing_comma = true;
                    } else {
                        count += 1;
                    }
                }
                _ => {}
            }
        }
    }
    let _ = saw_trailing_comma;
    count
}

/// Extracts variant names from a fieldless enum body.
fn parse_unit_variants(enum_name: &str, stream: TokenStream) -> Vec<String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        match &tokens[i] {
            TokenTree::Punct(p) if p.as_char() == '#' => i += 2,
            TokenTree::Punct(p) if p.as_char() == ',' => i += 1,
            TokenTree::Ident(id) => {
                variants.push(id.to_string());
                i += 1;
                if let Some(TokenTree::Group(_)) = tokens.get(i) {
                    panic!(
                        "serde shim derive: enum `{enum_name}` has a data-carrying \
                         variant `{}`, which is not supported",
                        variants.last().unwrap()
                    );
                }
                // Skip an explicit discriminant (`= expr`) if present.
                if let Some(TokenTree::Punct(p)) = tokens.get(i) {
                    if p.as_char() == '=' {
                        i += 1;
                        while i < tokens.len() {
                            if let TokenTree::Punct(p) = &tokens[i] {
                                if p.as_char() == ',' {
                                    break;
                                }
                            }
                            i += 1;
                        }
                    }
                }
            }
            other => panic!("serde shim derive: unexpected token in enum body: {other:?}"),
        }
    }
    variants
}

// ---- code generation -------------------------------------------------------

fn generate_serialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.shape {
        Shape::Named(fields) => {
            let entries: Vec<String> = fields
                .iter()
                .map(|f| format!("(\"{f}\".to_string(), ::serde::Serialize::to_value(&self.{f}))"))
                .collect();
            format!("::serde::Value::Map(vec![{}])", entries.join(", "))
        }
        Shape::Tuple(1) => "::serde::Serialize::to_value(&self.0)".to_string(),
        Shape::Tuple(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Serialize::to_value(&self.{i})"))
                .collect();
            format!("::serde::Value::Seq(vec![{}])", items.join(", "))
        }
        Shape::Unit => "::serde::Value::Null".to_string(),
        Shape::Enum(variants) => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| format!("{name}::{v} => ::serde::Value::Str(\"{v}\".to_string())"))
                .collect();
            format!("match self {{ {} }}", arms.join(", "))
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
             fn to_value(&self) -> ::serde::Value {{ {body} }}\n\
         }}"
    )
}

fn generate_deserialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.shape {
        Shape::Named(fields) => {
            let inits: Vec<String> = fields
                .iter()
                .map(|f| {
                    format!(
                        "{f}: ::serde::Deserialize::from_value(__v.field(\"{f}\", \"{name}\")?)?"
                    )
                })
                .collect();
            format!("Ok({name} {{ {} }})", inits.join(", "))
        }
        Shape::Tuple(1) => format!("Ok({name}(::serde::Deserialize::from_value(__v)?))"),
        Shape::Tuple(n) => {
            let elems: Vec<String> = (0..*n)
                .map(|i| {
                    format!(
                        "::serde::Deserialize::from_value(__seq.get({i}).ok_or_else(|| \
                         ::serde::Error::expected(\"{n}-element sequence\", \"{name}\"))?)?"
                    )
                })
                .collect();
            format!(
                "let __seq = __v.as_seq().ok_or_else(|| \
                 ::serde::Error::expected(\"sequence\", \"{name}\"))?;\n\
                 Ok({name}({}))",
                elems.join(", ")
            )
        }
        Shape::Unit => format!("Ok({name})"),
        Shape::Enum(variants) => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| format!("\"{v}\" => Ok({name}::{v})"))
                .collect();
            format!(
                "match __v.as_str().ok_or_else(|| \
                 ::serde::Error::expected(\"string\", \"{name}\"))? {{\n\
                     {},\n\
                     other => Err(::serde::Error(format!(\
                         \"unknown {name} variant `{{other}}`\"))),\n\
                 }}",
                arms.join(",\n")
            )
        }
    };
    format!(
        "impl<'de> ::serde::Deserialize<'de> for {name} {{\n\
             fn from_value(__v: &::serde::Value) -> ::core::result::Result<Self, ::serde::Error> {{\n\
                 {body}\n\
             }}\n\
         }}"
    )
}
