"""spark-submit entrypoint reproducing one of the paper's tables (see DESIGN.md).

Usage: spark-submit jobs/run_table.py <table> [scale]   (scale: test|bench, default bench)

<table> is a key of ``repro.harness.tables.ALL_TABLES``. Tables without a
``scale`` parameter (table18a, table18b) take no scale argument.
"""
import inspect
import sys

from pyspark.sql import SparkSession

from repro.harness.tables import ALL_TABLES, format_table


def parse_args(argv: list[str]) -> tuple[str, dict]:
    """Validate ``<table> [scale]`` before Spark starts; exit non-zero on misuse."""
    usage = f"usage: run_table.py <table> [scale]; tables: {', '.join(ALL_TABLES)}"
    if not 1 <= len(argv) <= 2 or argv[0] not in ALL_TABLES:
        sys.exit(usage)
    name, kwargs = argv[0], {}
    if len(argv) == 2:
        if "scale" not in inspect.signature(ALL_TABLES[name]).parameters:
            sys.exit(f"{name} takes no scale argument")
        kwargs["scale"] = argv[1]
    return name, kwargs


def main() -> None:
    name, kwargs = parse_args(sys.argv[1:])
    spark = (
        SparkSession.builder.appName(f"repro-{name}")
        .config("spark.sql.shuffle.partitions", "16")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    print(format_table(ALL_TABLES[name](spark, **kwargs)))
    spark.stop()


if __name__ == "__main__":
    main()
