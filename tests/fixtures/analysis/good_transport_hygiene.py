"""Known-good: codec-built payloads."""


def dispatch(data_channel, codec_message):
    data_channel.send(codec_message)


def broadcast_delta(data_channel, entries):
    payload = {"type": "cache-delta", "entries": entries}
    data_channel.send(payload)
