"""Self-time arithmetic and the span recorder."""

from array import array

from spans import SpanRecorder, layer_self_ns, read_spans, root_ns, summarize


def _tree():
    """net:A [0,100] > gptp:B [10,50] > gptp:C [20,30] > clocks:D [22,25];
    net:A > net:E [60,90] > sim:F [70,80]."""
    names = ["net:A", "gptp:B", "gptp:C", "clocks:D", "net:E", "sim:F"]
    spans = [  # (name id, parent index, start, end)
        (0, -1, 0, 100),
        (1, 0, 10, 50),
        (2, 1, 20, 30),
        (3, 2, 22, 25),
        (4, 0, 60, 90),
        (5, 4, 70, 80),
    ]
    columns = (
        array("i", [s[0] for s in spans]),
        array("i", [s[1] for s in spans]),
        array("q", [s[2] for s in spans]),
        array("q", [s[3] for s in spans]),
    )
    return names, columns


def test_self_time_subtracts_direct_children_only():
    names, columns = _tree()
    per_name = summarize(names, *columns)
    assert {name: v[2] for name, v in per_name.items()} == {
        "net:A": 30, "gptp:B": 30, "gptp:C": 7, "clocks:D": 3,
        "net:E": 20, "sim:F": 10,
    }
    assert per_name["net:A"][:2] == (1, 100)


def test_nested_same_layer_calls_are_counted_once():
    names, columns = _tree()
    by_layer = layer_self_ns(summarize(names, *columns))
    assert by_layer == {"net": 50, "gptp": 37, "clocks": 3, "sim": 10}
    assert sum(by_layer.values()) == root_ns(*columns[1:]) == 100


def test_recorder_nests_recursive_calls_and_adds_up(tmp_path):
    recorder = SpanRecorder()

    def depth(n):
        return n if n == 0 else traced(n - 1) + leaf()

    traced = recorder.wrap(depth, "core:depth")
    leaf = recorder.wrap(lambda: 1, "clocks:leaf")
    with recorder.span("experiments:root"):
        assert traced(3) == 3
    name_col, parent_col, _, _ = recorder.columns()
    assert len(recorder) == 1 + 4 + 3
    # The first recursive call is the root's child, each later one its
    # predecessor's child.
    depth_spans = [i for i in range(len(recorder))
                   if recorder.names[name_col[i]] == "core:depth"]
    assert [parent_col[i] for i in depth_spans] == [0] + depth_spans[:-1]
    per_name = summarize(recorder.names, *recorder.columns())
    assert per_name["core:depth"][0] == 4
    assert per_name["clocks:leaf"][0] == 3
    wall = root_ns(*recorder.columns()[1:])
    assert sum(layer_self_ns(per_name).values()) == wall

    path = str(tmp_path / "spans.json")
    recorder.write(path, {"workload": "unit"})
    header, columns = read_spans(path)
    assert header["workload"] == "unit"
    assert summarize(header["names"], *columns) == per_name


def test_recorder_closes_spans_on_exceptions():
    recorder = SpanRecorder()

    def boom():
        raise ValueError("x")

    traced = recorder.wrap(boom, "gptp:boom")
    try:
        traced()
    except ValueError:
        pass
    assert recorder.stack == [-1]
    _, _, starts, ends = recorder.columns()
    assert ends[0] >= starts[0] > 0
