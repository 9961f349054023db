"""Minimal chat-completion HTTP client with retries and injectable transport.

The transport is a callable (url, headers, payload) -> parsed JSON body, so
tests can stub the wire without a server. API key comes from an environment
variable, never from config files.
"""
from __future__ import annotations

import os
from typing import Callable

from .errors import RefinerError

API_KEY_ENV = "FAIRQR_API_KEY"
DEFAULT_MAX_RETRIES = 2

Transport = Callable[[str, dict, dict], dict]


def _requests_transport(url: str, headers: dict, payload: dict) -> dict:
    import requests  # loaded only when an LLM endpoint is called

    resp = requests.post(url, headers=headers, json=payload, timeout=60)
    resp.raise_for_status()
    return resp.json()


class ChatCompletionClient:
    """OpenAI-style chat completion endpoint wrapper.

    Tolerates concurrent calls: no mutable state beyond configuration.
    """

    def __init__(
        self,
        base_url: str,
        model: str,
        api_key_env: str = API_KEY_ENV,
        max_retries: int = DEFAULT_MAX_RETRIES,
        transport: Transport | None = None,
    ):
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.api_key_env = api_key_env
        self.max_retries = max_retries
        self.transport = transport or _requests_transport

    def complete(self, prompt: str, temperature: float) -> str:
        """One chat completion; returns the assistant message content."""
        url = f"{self.base_url}/chat/completions"
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(self.api_key_env)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": temperature,
        }
        last_error: Exception | None = None
        for _ in range(1 + self.max_retries):
            try:
                body = self.transport(url, headers, payload)
                return body["choices"][0]["message"]["content"]
            except (KeyError, IndexError, TypeError, OSError) as exc:
                last_error = exc  # OSError covers requests.RequestException
        raise RefinerError(
            f"chat completion failed after {1 + self.max_retries} attempts: "
            f"{last_error}"
        )
