//! The lexer (and the rule engine behind it) must never panic, whatever
//! bytes it is pointed at — it runs over every file in the tree,
//! including ones that are mid-edit or not valid Rust at all.

use proptest::prelude::*;

use abc_lint::config::Config;
use abc_lint::lexer::lex;
use abc_lint::rules::Engine;
use abc_lint::RuleFilter;

fn hostile_config() -> Config {
    // Put the probe file in scope of every path-scoped rule.
    Config::parse(
        "untrusted soup.rs\nlockscope soup.rs\nlock-level 1 outer\nlock-level 2 inner\nlock-fn 1 lock_table\n",
    )
    .expect("static config parses")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary byte soup: tokens stay in bounds and lines stay sane.
    #[test]
    fn lexer_never_panics_on_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let src = String::from_utf8_lossy(&bytes);
        let lexed = lex(&src);
        for t in &lexed.tokens {
            prop_assert!(t.start <= t.end && t.end <= src.len());
            prop_assert!(t.line >= 1);
        }
    }

    /// Arbitrary (valid UTF-8) strings, biased toward Rust-ish delimiters
    /// the lexer special-cases: quotes, hashes, braces, `r`/`b` prefixes.
    /// Every token's line is its first byte's: one more than the newlines
    /// before it, whatever literal or comment swallowed them.
    #[test]
    fn lexer_never_panics_on_delimiter_soup(
        picks in proptest::collection::vec(any::<u8>(), 0..64)
    ) {
        const PIECES: &[&str] = &[
            "\"", "'", "#", "r", "b", "r#\"", "\\", "//", "/*", "*/",
            "{", "}", "[", "]", "\n", "x", "0", "!", ".", "::",
            "as", "unsafe", "fn", "let",
        ];
        let src: String = picks
            .iter()
            .map(|&p| PIECES[usize::from(p) % PIECES.len()])
            .collect();
        let lexed = lex(&src);
        prop_assert!(lexed.tokens.len() <= src.len().max(1));
        for t in &lexed.tokens {
            let newlines = src.as_bytes()[..t.start].iter().filter(|&&c| c == b'\n').count();
            prop_assert_eq!(t.line as usize, 1 + newlines, "{:?} in {:?}", t, &src);
        }
    }

    /// The full rule engine survives the same soup (all rules enabled,
    /// every scope matching the probe path).
    #[test]
    fn engine_never_panics_on_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let config = hostile_config();
        let mut engine = Engine::new(&config, RuleFilter::all());
        let src = String::from_utf8_lossy(&bytes);
        engine.check_file("soup.rs", &src);
        let _ = engine.finish();
    }
}
