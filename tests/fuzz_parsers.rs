//! Seeded fuzzing of the two parsers a client reaches: the HTTP request
//! reader and the XPath parser, the latter followed down the chain a
//! `/query` runs (normalize → sat gate → translate → execute). The DTD and
//! XML parsers, which an operator reaches, are fuzzed the same way; a
//! document that parses is validated, and a valid one shredded and queried.
//!
//! Every input must come back as a value or a typed error: never a panic,
//! and never more input consumed than the request caps allow. A query
//! that executes must also answer what the native evaluator answers, and
//! nothing when the sat gate proved it empty. Everything
//! is deterministic in the `SplitMix64` seeds, so a failure replays
//! exactly; minimise it into a named regression test beside the fix.

use std::collections::BTreeSet;

use xpath2sql::core::Engine;
use xpath2sql::dtd::parser::MAX_DEPTH;
use xpath2sql::dtd::{parse_dtd, samples, Dtd, DtdError, DtdGraph};
use xpath2sql::serve::read_request;
use xpath2sql::shred::edge_database;
use xpath2sql::xml::parser::MAX_DEPTH as XML_MAX_DEPTH;
use xpath2sql::xml::rng::SplitMix64;
use xpath2sql::xml::{parse_xml, to_xml_string, validate, Generator, GeneratorConfig, XmlError};
use xpath2sql::xpath::{eval_from_document, parse_xpath, Sat};

/// `read_request`'s head and body caps (16 KiB and 1 MiB).
const MAX_REQUEST_BYTES: usize = 16 * 1024 + 1024 * 1024;

/// Parse `input` as one request and check the contract: `Ok`, or an
/// `InvalidData` / `UnexpectedEof` error, with at most the caps consumed.
fn check_request(input: &[u8]) {
    let mut rest = input;
    if let Err(e) = read_request(&mut rest) {
        assert!(
            matches!(
                e.kind(),
                std::io::ErrorKind::InvalidData | std::io::ErrorKind::UnexpectedEof
            ),
            "untyped error {e:?} on {:?}",
            String::from_utf8_lossy(input)
        );
    }
    let consumed = input.len() - rest.len();
    assert!(consumed <= MAX_REQUEST_BYTES, "consumed {consumed} bytes");
}

#[test]
fn request_reader_survives_random_and_mutated_bytes() {
    const VALID: [&str; 3] = [
        "GET /query?q=dept%2F%2Fproject&limit=10 HTTP/1.1\r\nHost: x\r\n\r\n",
        "POST /query HTTP/1.1\r\nContent-Length: 12\r\n\r\ndept//course",
        "GET /healthz HTTP/1.1\r\n\r\n",
    ];
    let mut rng = SplitMix64::seed_from_u64(0xf022_0001);
    for _ in 0..3_000 {
        let len = rng.gen_range(0..200);
        let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        check_request(&bytes);
    }
    for _ in 0..3_000 {
        let mut bytes = VALID[rng.gen_range(0..VALID.len())].as_bytes().to_vec();
        for _ in 0..rng.gen_range(1..=4) {
            let at = rng.gen_range(0..=bytes.len());
            let byte = rng.next_u64() as u8;
            match rng.gen_range(0..5) {
                0 if at < bytes.len() => bytes[at] = byte,
                1 if at < bytes.len() => {
                    bytes.remove(at);
                }
                // a run long enough to cross the head cap
                2 => {
                    let run = rng.gen_range(1..40_000);
                    bytes.splice(at..at, std::iter::repeat_n(byte, run));
                }
                3 => {
                    let digits = rng.next_u64().to_string();
                    let header = format!("Content-Length: {digits}\r\n");
                    let at = bytes.iter().position(|&b| b == b'\n').map_or(0, |i| i + 1);
                    bytes.splice(at..at, header.bytes());
                }
                _ => bytes.insert(at, byte),
            }
        }
        check_request(&bytes);
    }
}

/// Draw a string of `len` tokens from the query alphabet.
fn arb_tokens(rng: &mut SplitMix64, len: usize) -> String {
    const TOKENS: [&str; 27] = [
        "dept",
        "course",
        "student",
        "project",
        "x",
        "*",
        ".",
        "/",
        "//",
        "[",
        "]",
        "(",
        ")",
        "|",
        "not",
        "and",
        "or",
        "\"",
        "'",
        "=",
        "child::",
        "self::",
        "descendant::",
        "descendant-or-self::",
        "parent::",
        "text()=",
        "\"v\"",
    ];
    let mut text = String::new();
    for _ in 0..len {
        text.push_str(TOKENS[rng.gen_range(0..TOKENS.len())]);
        if rng.gen_bool(0.3) {
            text.push(' ');
        }
    }
    text
}

#[test]
fn query_chain_survives_random_token_strings() {
    let dtd = samples::dept_simplified();
    let tree = (0..16)
        .map(|s| {
            Generator::new(
                &dtd,
                GeneratorConfig::shaped(6, 3, Some(300)).with_seed(40 + s),
            )
            .generate()
        })
        .find(|t| t.len() >= 50)
        .unwrap();
    let mut engine = Engine::new(&dtd);
    engine.load(&tree);
    let mut rng = SplitMix64::seed_from_u64(0xf022_0002);
    let mut executed = 0usize;
    for _ in 0..40_000 {
        let len = rng.gen_range(1..=10);
        let text = arb_tokens(&mut rng, len);
        let Ok(path) = parse_xpath(&text) else {
            continue;
        };
        let sat = engine.check_sat(&engine.normalize_path(&path));
        let answers = engine.query(&text);
        if let (Sat::Empty { .. }, Ok(answers)) = (&sat, &answers) {
            assert!(answers.is_empty(), "pruned query {text:?} answers");
        }
        if let Ok(answers) = answers {
            let want: BTreeSet<u32> = eval_from_document(&path, &tree, &dtd)
                .into_iter()
                .map(|n| n.0)
                .collect();
            assert_eq!(
                answers, want,
                "engine disagrees with the oracle on {text:?}"
            );
            executed += 1;
        }
    }
    assert!(executed > 100, "the alphabet must reach the executor");
}

/// The DTD alphabet: declarations, model syntax and a few element names.
const DTD_TOKENS: [&str; 22] = [
    "<!ELEMENT a ",
    "<!ELEMENT b ",
    "<!ELEMENT",
    "<!ATTLIST a id CDATA #IMPLIED>",
    "<!--",
    "-->",
    ">",
    "(",
    ")",
    ",",
    "|",
    "*",
    "+",
    "?",
    "#PCDATA",
    "EMPTY",
    "ANY",
    "a",
    "b",
    "c",
    "(b)",
    "(a | b)*",
];

/// One DTD token, or now and then a declaration opening up to four times
/// as many groups as the parser's nesting bound.
fn arb_dtd_token(rng: &mut SplitMix64) -> String {
    if rng.gen_range(0..50) == 0 {
        return format!(
            "<!ELEMENT a {}",
            "(".repeat(rng.gen_range(1..4 * MAX_DEPTH))
        );
    }
    DTD_TOKENS[rng.gen_range(0..DTD_TOKENS.len())].to_string()
}

#[test]
fn dtd_parser_survives_random_and_mutated_text() {
    let valid: Vec<String> = [samples::dept(), samples::cross(), samples::gedml()]
        .iter()
        .map(|d| d.to_dtd_text())
        .collect();
    let mut rng = SplitMix64::seed_from_u64(0xf022_0003);
    let (mut parsed, mut too_deep) = (0usize, 0usize);
    for i in 0..20_000 {
        let text = if i % 2 == 0 {
            (0..rng.gen_range(1..=12))
                .map(|_| arb_dtd_token(&mut rng) + if rng.gen_bool(0.3) { " " } else { "" })
                .collect()
        } else {
            // a sample DTD with up to three tokens spliced in at char
            // boundaries (the text is ASCII)
            let mut text = valid[rng.gen_range(0..valid.len())].clone();
            for _ in 0..rng.gen_range(0..=3) {
                let at = rng.gen_range(0..=text.len());
                text.insert_str(at, &arb_dtd_token(&mut rng));
            }
            text
        };
        match parse_dtd(&text) {
            Ok(dtd) => {
                DtdGraph::of(&dtd);
                parsed += 1;
            }
            Err(DtdError::Syntax { offset, .. }) => assert!(offset <= text.len(), "{text:?}"),
            Err(DtdError::TooDeep { offset }) => {
                assert_eq!(&text[offset..offset + 1], "(", "{text:?}");
                too_deep += 1;
            }
            Err(_) => {}
        }
    }
    assert!(parsed > 100, "the alphabet must reach a built DTD");
    assert!(too_deep > 100, "deep nesting must reach the bound");
    // 100 000 nested groups (about 200 KB): unbounded recursion over this
    // overflows even an 8 MiB stack
    let deep = format!(
        "<!ELEMENT a {}a{}>",
        "(".repeat(100_000),
        ")".repeat(100_000)
    );
    assert!(matches!(parse_dtd(&deep), Err(DtdError::TooDeep { .. })));
}

/// The XML alphabet over `dept_simplified`'s element names and one
/// undeclared name: tags, self-closing tags, text, entities, comments and
/// processing instructions.
const XML_TOKENS: [&str; 31] = [
    "<dept>",
    "</dept>",
    "<course>",
    "</course>",
    "<student>",
    "</student>",
    "<project>",
    "</project>",
    "<course/>",
    "<student />",
    "<project/>",
    "<course><student/></course>",
    "<x>",
    "</x>",
    "text",
    " ",
    "\n",
    "é",
    "&lt;",
    "&amp;",
    "&bogus;",
    "&",
    "<!-- c -->",
    "<!--",
    "-->",
    "<?xml version=\"1.0\"?>",
    "<?pi?>",
    "<!DOCTYPE dept [<!ELEMENT dept (course*)>]>",
    "<",
    "/>",
    "</",
];

/// One XML token, or now and then a run of up to four times as many
/// `<course>` openers as the parser's nesting bound.
fn arb_xml_token(rng: &mut SplitMix64) -> String {
    if rng.gen_range(0..50) == 0 {
        return "<course>".repeat(rng.gen_range(1..4 * XML_MAX_DEPTH));
    }
    XML_TOKENS[rng.gen_range(0..XML_TOKENS.len())].to_string()
}

/// The nearest char boundary of `text` at or below `at`.
fn char_floor(text: &str, mut at: usize) -> usize {
    while !text.is_char_boundary(at) {
        at -= 1;
    }
    at
}

/// Parse `text` under `dtd` and check the contract: a typed error whose
/// offset lies inside the input, or a tree that validates or fails with a
/// `ValidationError`; a valid tree shreds into a labelled, indexed store
/// on which `dept//course` answers what the native evaluator answers.
/// Returns the outcome for the caller's tallies.
fn check_xml(dtd: &Dtd, engine: &mut Engine<'_>, text: &str) -> XmlOutcome {
    let tree = match parse_xml(dtd, text) {
        Ok(tree) => tree,
        Err(e) => {
            let offset = match &e {
                XmlError::Syntax { offset, .. }
                | XmlError::UnknownElement { offset, .. }
                | XmlError::Mismatched { offset, .. }
                | XmlError::TooDeep { offset } => *offset,
            };
            assert!(offset <= text.len(), "{e:?} on {text:?}");
            if let XmlError::TooDeep { offset } = e {
                assert!(text[offset..].starts_with('<'), "{text:?}");
                return XmlOutcome::TooDeep;
            }
            return XmlOutcome::Refused;
        }
    };
    if validate(&tree, dtd).is_err() {
        return XmlOutcome::Invalid;
    }
    let db = edge_database(&tree, dtd);
    assert!(db.has_intervals(), "{text:?}");
    assert_eq!(db.indexed_relations(), dtd.len() + 1, "{text:?}");
    assert_eq!(db.total_tuples(), 2 * tree.len(), "{text:?}");
    engine.load_database(db);
    let path = parse_xpath("dept//course").unwrap();
    let want: BTreeSet<u32> = eval_from_document(&path, &tree, dtd)
        .into_iter()
        .map(|n| n.0)
        .collect();
    assert_eq!(engine.query("dept//course").unwrap(), want, "{text:?}");
    XmlOutcome::Valid
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum XmlOutcome {
    Refused,
    TooDeep,
    Invalid,
    Valid,
}

#[test]
fn xml_parser_survives_random_and_mutated_text() {
    let dtd = samples::dept_simplified();
    let mut engine = Engine::new(&dtd);
    let valid: Vec<String> = (0..4)
        .map(|s| {
            let cfg = GeneratorConfig::shaped(5, 3, Some(60)).with_seed(70 + s);
            to_xml_string(&Generator::new(&dtd, cfg).generate(), &dtd)
        })
        .collect();
    let mut rng = SplitMix64::seed_from_u64(0xf022_0004);
    let mut seen = [0usize; 4];
    for i in 0..6_000 {
        let text = if i % 2 == 0 {
            // token strings, half of them inside a root element
            let body: String = (0..rng.gen_range(1..=12))
                .map(|_| arb_xml_token(&mut rng))
                .collect();
            if rng.gen_bool(0.5) {
                format!("<dept>{body}</dept>")
            } else {
                body
            }
        } else {
            // a generated document with up to three tokens spliced in and
            // up to one byte run cut out, at char boundaries
            let mut text = valid[rng.gen_range(0..valid.len())].clone();
            for _ in 0..rng.gen_range(0..=3) {
                let at = char_floor(&text, rng.gen_range(0..=text.len()));
                text.insert_str(at, &arb_xml_token(&mut rng));
            }
            if rng.gen_bool(0.3) {
                let from = char_floor(&text, rng.gen_range(0..=text.len()));
                let to = char_floor(&text, (from + rng.gen_range(1..20)).min(text.len()));
                text.replace_range(from..to, "");
            }
            text
        };
        seen[check_xml(&dtd, &mut engine, &text) as usize] += 1;
    }
    let [refused, too_deep, invalid, shredded] = seen;
    assert!(refused > 100, "the alphabet must reach every parse error");
    assert!(too_deep > 0, "deep nesting must reach the bound");
    assert!(invalid > 10, "some parsed trees must fail validation");
    assert!(shredded > 100, "the alphabet must reach a shredded store");
    // the bound itself: a root and `MAX_DEPTH - 1` nested courses parse,
    // validate and shred; one more course is refused at its open tag
    for (courses, outcome) in [
        (XML_MAX_DEPTH - 1, XmlOutcome::Valid),
        (XML_MAX_DEPTH, XmlOutcome::TooDeep),
    ] {
        let text = format!(
            "<dept>{}{}</dept>",
            "<course>".repeat(courses),
            "</course>".repeat(courses)
        );
        assert!(
            check_xml(&dtd, &mut engine, &text) == outcome,
            "{courses} courses"
        );
    }
}
