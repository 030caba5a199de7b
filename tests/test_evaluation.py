from senseparse.evaluation import VARIANT_NAMES, VariantConfig, run_experiment

# The fixture eval report: a regression gate for every change that must
# leave the parser's output unchanged.
GOLDEN_REPORT = (
    "variant\tf_score\twu_palmer\tsemfac\tfrag\tattempted\tscored\tdropped_advice\n"
    "plain\t0.4000\t0.6443\t0.8111\t0\t30\t30\t0\n"
    "pre\t0.8000\t0.8571\t0.9333\t0\t30\t30\t0\n"
    "prog\t0.8000\t0.8571\t0.9333\t0\t30\t30\t0\n"
    "comb\t0.8000\t0.8571\t0.9333\t0\t30\t30\t0\n"
    "fixed\t1.0000\t1.0000\t1.0000\t6\t30\t30\t0\n"
)


def test_fixture_report_matches_golden(resources, corpus, advice_records):
    variants = [VariantConfig(name) for name in VARIANT_NAMES]
    report = run_experiment(resources, corpus, advice_records, variants)
    assert report.to_tsv() == GOLDEN_REPORT
